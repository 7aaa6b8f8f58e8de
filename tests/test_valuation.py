import dataclasses
import io
import json
import re

import pytest

from involutions import cli, valuation
from involutions.exactnum import is_prime, multinomial, nu_int, primes_upto
from involutions.involution import involution_number
from involutions.partialsum import partial_sum
from involutions.valuation import (
    TreeVertex,
    build_valuation_tree,
    conjecture_check,
    inefficient_primes_upto,
    involution_mod_sequence,
    is_efficient,
    nu2_involution,
    nu2_involution_floor,
    nu2_partial_sum,
    nu3_partial_sum,
    nu3_partial_sum_pattern_check,
    periodicity_check,
    write_tree_json,
)

INEFFICIENT_62 = [
    5, 13, 19, 23, 29, 31, 43, 53,
    59, 61, 67, 73, 79, 83, 89, 97,
    103, 131, 137, 151, 157, 163, 173, 179,
    181, 191, 197, 199, 211, 229, 233, 239,
    241, 281, 293, 307, 317, 347, 359, 367,
    373, 379, 389, 397, 409, 419, 421, 431,
    433, 443, 449, 457, 461, 463, 479, 487,
    491, 499, 509, 521, 523, 541,
]


def test_nu2_involution_examples():
    assert nu2_involution(7) == 3
    assert nu2_involution(0) == 0
    assert nu2_involution(10) == 3


def test_nu2_partial_sum_examples():
    assert nu2_partial_sum(7) == 5
    assert nu2_partial_sum(4) == 1
    assert nu2_partial_sum(6) == 3
    assert nu2_partial_sum(0) == 0  # documented convention, a(0) = 1


# the closed forms at n = 0..27, recorded before they refused a float index
CLOSED_FORMS_TO_27 = {
    nu2_involution: [0, 0, 1, 2, 1, 1, 2, 3, 2, 2, 3, 4, 3, 3, 4, 5, 4, 4, 5, 6, 5, 5, 6, 7, 6, 6, 7, 8],
    nu2_involution_floor: [0, 0, 1, 2, 1, 1, 2, 3, 2, 2, 3, 4, 3, 3, 4, 5, 4, 4, 5, 6, 5, 5, 6, 7,
                           6, 6, 7, 8],
    nu2_partial_sum: [0, 1, 2, 3, 1, 2, 3, 5, 2, 3, 4, 5, 3, 4, 5, 8, 4, 5, 6, 7, 5, 6, 7, 9, 6, 7, 8, 9],
    nu3_partial_sum: [0, 0, 0, 0, 2, 0, 1, 0, 2, 0, 0, 0, 0, 2, 0, 1, 0, 2, 0, 0, 0, 0, 2, 0, 1, 0, 3, 0],
}


@pytest.mark.parametrize("closed_form", CLOSED_FORMS_TO_27, ids=lambda f: f.__name__)
def test_closed_forms_refuse_a_float_index(closed_form):
    # nu2_partial_sum(4.5) and nu2_involution_floor(7.2) read a branch and
    # returned 1.0 and 3.0, nu3_partial_sum(4.5) returned 0
    for n in (4.5, 7.2, 4.0):
        with pytest.raises(TypeError):
            closed_form(n)
    assert [closed_form(n) for n in range(28)] == CLOSED_FORMS_TO_27[closed_form]


def test_is_efficient_examples():
    assert is_efficient(3) is True
    assert is_efficient(5) is False
    assert is_efficient(7) is True
    with pytest.raises(ValueError):
        is_efficient(2)
    with pytest.raises(ValueError):
        is_efficient(9)


def test_inefficient_primes_table():
    assert inefficient_primes_upto(50) == [5, 13, 19, 23, 29, 31, 43]
    assert inefficient_primes_upto(3) == []
    assert inefficient_primes_upto(541) == INEFFICIENT_62


def test_efficiency_partition_of_primes():
    efficient = [
        p for p in primes_upto(541) if p != 2 and p not in INEFFICIENT_62
    ]
    assert all(is_efficient(p) for p in efficient)
    assert len(efficient) + len(INEFFICIENT_62) + 1 == len(primes_upto(541))
    assert not any(is_efficient(p) for p in INEFFICIENT_62)


def test_efficient_primes_never_divide():
    for p in (3, 7, 11, 17, 37, 41, 47, 71, 101):
        residues = involution_mod_sequence(p, 3000)
        assert all(r != 0 for r in residues)


def test_periodicity_examples():
    assert periodicity_check(5, 1, 100)
    assert periodicity_check(5, 2, 200)
    # the p=2 claim is false from n=0: I(0)=1 is odd, I(2)=2 is even
    assert not periodicity_check(2, 1, 50)


def test_periodicity_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="n_max >= 0"):
        periodicity_check(5, 1, -1)


def test_periodicity_holds_a_window_of_p_to_the_r_residues(run_measured):
    # the stream is compared with itself 7^3 terms later: holding all
    # 2 * 10^6 + 7^3 + 1 residues first raised the peak by 28 MB
    grandchild = (
        "import resource\n"
        "from involutions.valuation import periodicity_check\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert periodicity_check(7, 3, 2 * 10**6)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    proc, _ = run_measured("-c", grandchild)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10 * 1024


def test_periodicity_is_false_at_p2():
    # p = 2: false from n = 0 on, since I(0) = 1 is odd and I(2) = 2 is even
    ok = involution_number(0) % 2 != involution_number(2) % 2
    for r in (1, 2, 3):
        q = 2**r
        vals = involution_mod_sequence(q, 500 + q)
        # nu_2(I(n)) >= r exactly from n = 4r - 2 on, so the residues are
        # eventually zero and cannot be purely periodic
        onset = 4 * r - 2
        ok = ok and vals[onset - 1] != 0 and not any(vals[onset:])
        counterexamples = [n for n in range(501) if vals[n + q] != vals[n]]
        ok = ok and not periodicity_check(2, r, 500)
        ok = ok and counterexamples[:1] == [0]
        ok = ok and all(n < onset for n in counterexamples)
        print(f"periodicity mod 2^{r} fails at n = {counterexamples}")
    assert ok


def test_tree_level_1():
    tree = build_valuation_tree(5, 1)
    vertices = tree.levels[0]
    assert [v.residue for v in vertices] == [0, 1, 2, 3, 4]
    for v in vertices[:4]:
        assert v.terminal and v.valuation == 0
    assert not vertices[4].terminal and vertices[4].level == 1


def test_tree_level_2():
    tree = build_valuation_tree(5, 2)
    level2 = tree.levels[1]
    assert [v.residue for v in level2] == [4, 9, 14, 19, 24]
    for v in level2[:4]:
        assert v.terminal and v.valuation == 1
    assert not level2[4].terminal and level2[4].level == 2
    assert tree.levels[0] == build_valuation_tree(5, 1).levels[0]


def test_tree_13_level_1():
    tree = build_valuation_tree(13, 1)
    nonterminal = [v for v in tree.levels[0] if not v.terminal]
    assert len(nonterminal) == 1


def test_tree_terminal_certification():
    # certification compares each terminal claim against exact valuations
    tree = build_valuation_tree(5, 3)
    for level in tree.levels:
        for v in level:
            if v.terminal:
                for i in range(2):
                    n = v.residue + i * 5**v.level
                    assert nu_int(involution_number(n), 5) == v.valuation


def _write_tree_json(p, depth):
    # the writer has written part of the tree when certification fails:
    # it must raise with the document unfinished, never closed
    out = io.StringIO()
    try:
        write_tree_json(p, depth, out)
    except AssertionError:
        assert out.getvalue().startswith('{"levels": [[')
        assert "schema" not in out.getvalue()
        raise


# a stream patched to 0 or to p times its residue, read by each reader of
# the vertex stream: all three must certify the whole tree
CORRUPTIONS = pytest.mark.parametrize("perturb, read", [
    pytest.param(perturb, read, id=name + suffix)
    for read, suffix in [(build_valuation_tree, ""), (conjecture_check, "-conjecture"),
                         (_write_tree_json, "-json")]
    for name, perturb in [("zero", lambda r, m: 0), ("times-p", lambda r, m: 5 * r % m)]
])


@CORRUPTIONS
def test_tree_certification_catches_a_corrupt_member(monkeypatch, perturb, read):
    # corrupt I(n) mod p^L at the second member of the class of 1 mod 5,
    # which the tree itself never reads: only certification can see it
    stream = valuation.involution_numbers

    def corrupt(modulus=0, one=1):
        for n, r in enumerate(stream(modulus, one)):
            yield perturb(r, modulus) if n == 1 + 5 else r

    monkeypatch.setattr(valuation, "involution_numbers", corrupt)
    with pytest.raises(AssertionError, match="n=6"):
        read(5, 3)


def _reference_tree(p, depth):
    """The tree's levels, from one sweep of I(n) mod p^depth for n < p^depth."""
    residues = involution_mod_sequence(p**depth, p**depth - 1)
    levels, frontier = [], [0]
    for level in range(1, depth + 1):
        vertices = []
        for c in sorted(base + k * p ** (level - 1) for base in frontier for k in range(p)):
            value = residues[c] % p**level
            vertices.append(TreeVertex(level, c, nu_int(value, p) if value else None))
        levels.append(vertices)
        frontier = [v.residue for v in vertices if not v.terminal]
        if not frontier:
            break
    return levels


# 53 trees: p = 5 to depth 8, and every other inefficient p < 100 to depth 3
TREE_CASES = [(5, depth) for depth in range(1, 9)] + [
    (p, depth) for p in inefficient_primes_upto(100) if p != 5 for depth in (1, 2, 3)
]


@pytest.mark.parametrize("p, depth", TREE_CASES)
def test_tree_equals_the_tree_of_a_full_sweep(p, depth):
    tree = build_valuation_tree(p, depth)
    assert tree.levels == _reference_tree(p, depth)


def _count_reads(monkeypatch):
    """The residues the tree reads from its stream, in the order read."""
    stream = valuation.involution_numbers
    steps = []

    def counted(modulus=0, one=1):
        for r in stream(modulus, one):
            steps.append(r)
            yield r

    monkeypatch.setattr(valuation, "involution_numbers", counted)
    return steps


def test_tree_that_ends_early_reads_no_further(monkeypatch):
    # a tree to depth L steps its stream at most p^L + 1 times, the last read
    # being I(p^L), which certifies level L by I(n + q) == I(q) I(n) mod q;
    # p = 19 ends at level 2: its residues are read to the last certification
    # member of level 2, below 3 * 19^2, never towards 19^4
    steps = _count_reads(monkeypatch)
    tree = build_valuation_tree(19, 4)
    assert len(tree.levels) == 2
    assert len(steps) <= 3 * 19**2


@pytest.mark.parametrize("p, depth, reads", [
    (5, 6, 15626), (5, 8, 390626), (13, 3, 2198),
    (19, 4, 1071), (59, 2, 3482), (29, 3, 24390),
])
def test_tree_reads_the_residues_that_decide_it(monkeypatch, p, depth, reads):
    # up to p^L for level L, and to the last certification member of a
    # terminal vertex: certifying a vertex where it is decided reads no more;
    # the last level is certified by I(p^depth) alone, so a tree that reaches
    # it with terminal vertices reads p^depth + 1 residues
    steps = _count_reads(monkeypatch)
    build_valuation_tree(p, depth)
    assert len(steps) == reads


@pytest.mark.parametrize("modulus", [5**6, 13**3, 3**40, 2**61 - 1])
def test_mod_sequence_matches_exact_values(modulus):
    assert involution_mod_sequence(modulus, 2000) == [
        involution_number(n) % modulus for n in range(2001)
    ]


@pytest.mark.parametrize("p, depth", [(5, 8), (97, 3), (991, 2), (99991, 1)])
def test_deep_conjecture_check_runs_in_bounded_memory(run_measured, p, depth):
    # inside the default budget the stream is stepped at most p^depth + 1
    # times (I(n + q) == I(q) I(n) mod q certifies the last level from
    # I(q) alone), only the residues of open classes are held, each level
    # is counted as its vertices stream past and no exact I(n) is built,
    # so the peak stays near the import's 21 MB, even for the 99991
    # vertices of (99991, 1), which held the whole tree at 32 MB
    proc, peak_kb = run_measured("-m", "involutions.cli", "valuation", "--conjecture",
                                 "--prime", str(p), "--depth", str(depth),
                                 "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["prime"] == p and len(doc["levels"]) == depth
    assert peak_kb < 28 * 1024


def test_wide_tree_tests_its_prime_once():
    # nu_int tests p on every call, so the 99991 valuations of this tree
    # must share one trial division, or (999983, 1) takes minutes
    before = is_prime.cache_info().misses
    tree = build_valuation_tree(99991, 1)
    assert len(tree.levels[0]) == 99991
    assert is_prime.cache_info().misses <= before + 1


@pytest.mark.parametrize("q", [2**5, 6, 5**3, 13**2, 97])
def test_shifted_involution_number_is_a_multiple_mod_q(q):
    # the step matrix [[1, m], [1, 0]] depends on m only mod q, and at m = 0
    # it discards I(-1): so I(n + q) == I(q) I(n) mod q, for any q >= 1
    assert all((involution_number(n + q) - involution_number(q) * involution_number(n)) % q == 0
               for n in range(3 * q))


@CORRUPTIONS
def test_tree_certification_catches_p_dividing_I_of_q(monkeypatch, perturb, read):
    # the last level is certified by I(125) mod 125 alone: plant p | I(q)
    # there, and the least terminal vertex of level 3 fails at t + 125
    last = build_valuation_tree(5, 3).levels[-1]
    t = min(v.residue for v in last if v.terminal)
    stream = valuation.involution_numbers

    def corrupt(modulus=0, one=1):
        for n, r in enumerate(stream(modulus, one)):
            yield perturb(r, modulus) if n == 125 else r

    monkeypatch.setattr(valuation, "involution_numbers", corrupt)
    with pytest.raises(AssertionError, match=f"n={t + 125}$"):
        read(5, 3)


@pytest.mark.parametrize("p, depth", [(5, 1), (5, 4), (13, 3), (19, 4), (3, 2)])
def test_tree_json_equals_the_sorted_json_dumps(p, depth):
    tree = build_valuation_tree(p, depth)
    doc = {
        "schema": "involutions/valuation-tree/1",
        "prime": p,
        "levels": [
            [{"residue": v.residue, "modulus": p**v.level,
              "status": "terminal" if v.terminal else "nonterminal",
              "valuation_or_bound": v.valuation if v.terminal else v.level}
             for v in level]
            for level in tree.levels
        ],
    }
    out = io.StringIO()
    write_tree_json(p, depth, out)
    assert out.getvalue() == json.dumps(doc, sort_keys=True) + "\n"


def test_wide_tree_json_streams_in_bounded_memory(run_measured):
    # the 99991 vertices are written as they are built, and none is held:
    # building the whole document first peaked at 76 MB, and holding the
    # tree while writing it a vertex at a time at 31 MB
    def count_braces(stdout):
        braces, tail = 0, b""
        for chunk in iter(lambda: stdout.read(1 << 16), b""):
            braces += chunk.count(b"{")
            tail = (tail + chunk)[-100:]
        return braces, tail
    proc, peak_kb = run_measured("-m", "involutions.cli", "valuation", "--tree",
                                 "--prime", "99991", "--depth", "1", read=count_braces)
    braces, tail = proc.stdout
    assert proc.returncode == 0, proc.stderr
    assert braces == 99991 + 1  # one per vertex and one for the document
    assert tail.endswith(b'"prime": 99991, "schema": "involutions/valuation-tree/1"}\n')
    assert peak_kb < 28 * 1024


def test_tree_json_schema():
    out = io.StringIO()
    write_tree_json(5, 2, out)
    doc = json.loads(out.getvalue())
    assert doc["schema"] == "involutions/valuation-tree/1"
    assert doc["prime"] == 5
    assert doc["levels"][0][0] == {
        "residue": 0, "modulus": 5, "status": "terminal", "valuation_or_bound": 0
    }


def test_conjecture_check_5():
    report = conjecture_check(5, 4)
    assert report.holds
    assert [lv.holds for lv in report.levels] == [True] * 4
    assert report.levels[0].n_terminal_at_expected == 4
    assert len(conjecture_check(5, 5).levels) == 5


def test_tree5_suite_checks_every_level(monkeypatch):
    # plant a terminal vertex of valuation 0 at level 4, where every
    # terminal vertex has valuation 3: the suite must see past level 2
    vertices = valuation._tree_vertices

    def corrupt(p, max_level):
        for v in vertices(p, max_level):
            yield dataclasses.replace(v, valuation=0) if v.level == 4 and v.terminal else v

    monkeypatch.setattr(valuation, "_tree_vertices", corrupt)
    check, bound = cli.SUITES["tree-5"]
    assert check(bound) == "tree level 4 does not match the narrative"


def test_conjecture_check_13():
    report = conjecture_check(13, 3)
    # reported as computed; for p=13 the first three levels conform
    assert all(lv.holds for lv in report.levels)


def test_conjecture_report_formats():
    report = conjecture_check(5, 2)
    doc = json.loads(report.to_json())
    assert doc["holds"] is True
    text = report.to_text()
    assert "p=5" in text and "holds" in text


def test_mod_sequence_arguments():
    with pytest.raises(ValueError):
        involution_mod_sequence(7, -1)
    with pytest.raises(ValueError):
        involution_mod_sequence(7, -2)
    with pytest.raises(ValueError):
        involution_mod_sequence(0, 3)
    with pytest.raises(ValueError):
        involution_mod_sequence(-7, 3)
    assert involution_mod_sequence(7, 0) == [1]
    assert involution_mod_sequence(1, 3) == [0, 0, 0, 0]


def test_tree_budget():
    # 5^9 = 1953125 is the first power of 5 beyond TREE_BUDGET = 10^6
    with pytest.raises(ValueError, match="budget"):
        build_valuation_tree(5, 9)


@pytest.mark.parametrize("p, depth", [(5, 10**8), (3, 10**9), (999999999999999989, 1)])
def test_tree_budget_comes_before_any_work(monkeypatch, capsys, p, depth):
    # neither p^depth nor a primality test by trial division is computed
    def is_prime(n):
        raise AssertionError(f"primality of {n} was tested")
    monkeypatch.setattr(valuation, "is_prime", is_prime)
    message = f"p^max_level = {p}^{depth} exceeds the compute budget {valuation.TREE_BUDGET}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_valuation_tree(p, depth)
    for action in ("--tree", "--conjecture"):
        argv = ["valuation", action, "--prime", str(p), "--depth", str(depth)]
        assert cli.run(argv) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_efficiency_scan_budget(monkeypatch):
    # a bound past SCAN_BUDGET is refused before its sieve is built
    def sieve(bound):
        raise AssertionError(f"a sieve to {bound} was built")
    monkeypatch.setattr(valuation, "primes_upto", sieve)
    with pytest.raises(ValueError, match=f"scan budget {valuation.SCAN_BUDGET}$"):
        inefficient_primes_upto(valuation.SCAN_BUDGET + 1)
    with pytest.raises(AssertionError, match="sieve"):
        inefficient_primes_upto(valuation.SCAN_BUDGET)


def test_nu3_pattern_examples():
    assert nu3_partial_sum_pattern_check(100)
    assert nu3_partial_sum_pattern_check(1000)
    # the observed indexing: a(8) = 1116 = 2^2 * 3^2 * 31 has valuation 2
    assert nu3_partial_sum(8) == 2 == nu_int(partial_sum(8), 3)


def test_nu3_check_reads_exact_valuations_from_residues(monkeypatch):
    # with the exact valuation in place of the closed form, every sweep up
    # to n_max passes only if each residue mod 3^K gives nu_3(a(n)) exactly
    exact = [nu_int(partial_sum(n), 3) for n in range(1001)]
    monkeypatch.setattr(valuation, "nu3_partial_sum", exact.__getitem__)
    assert all(nu3_partial_sum_pattern_check(n_max) for n_max in range(9, 1001))


def test_nu3_check_holds_below_nine(capsys):
    # 3^K > 9 (n_max // 9 + 1) keeps the check exact for every n_max >= 0
    assert all(nu3_partial_sum_pattern_check(n_max) for n_max in range(9))
    with pytest.raises(ValueError, match="n_max >= 0"):
        nu3_partial_sum_pattern_check(-1)
    for n_max in range(9):
        assert cli.run(["verify", "--suite", "nu3-pattern", "--max", str(n_max)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "nu3-pattern: ok\n"


@pytest.mark.parametrize("delta", [1, -1])
def test_nu3_check_catches_a_planted_mismatch(monkeypatch, delta):
    # 242 = 9 * 26 + 8 with 26 == 2 mod 3, so nu_3(a(242)) = 2 + nu_3(27) = 5
    assert nu3_partial_sum(242) == 5 == nu_int(partial_sum(242), 3)
    planted = {242: 5 + delta}
    monkeypatch.setattr(valuation, "nu3_partial_sum",
                        lambda n: planted.get(n, nu3_partial_sum(n)))
    assert not nu3_partial_sum_pattern_check(242)
    assert not nu3_partial_sum_pattern_check(1000)
    assert nu3_partial_sum_pattern_check(241)


def test_nu3_check_reads_a_zero_residue_as_a_mismatch(monkeypatch):
    # a(n) == 0 mod 3^K means nu_3(a(n)) >= K, above every predicted value
    stream = valuation.involution_numbers

    def vanishing(modulus=0, one=1):
        # the terms whose running sums are a(n) mod 3^K, but 0 at n = 100
        total = previous = 0
        for n, r in enumerate(stream(modulus, one)):
            total += r
            planted = 0 if n == 100 else total
            yield (planted - previous) % modulus
            previous = planted

    monkeypatch.setattr(valuation, "involution_numbers", vanishing)
    assert nu3_partial_sum_pattern_check(99)
    assert not nu3_partial_sum_pattern_check(1000)


def test_nu3_observed_pattern_values():
    assert nu3_partial_sum(4) == 2
    assert nu3_partial_sum(6) == 1
    assert nu3_partial_sum(9 * 2 + 8) == 2 + nu_int(3, 3)  # m=2, nu3(m+1)=1
    assert nu3_partial_sum(5) == 0


def test_multinomial_congruence_examples():
    # C(pn; p lam) - C(n; lam): 20 - 2 = 2 * 3^2 and 252 - 2 = 2 * 5^3
    assert multinomial(6, (3, 3)) - multinomial(2, (1, 1)) == 2 * 3**2
    assert multinomial(10, (5, 5)) - multinomial(2, (1, 1)) == 2 * 5**3
    assert multinomial(3, (3,)) - multinomial(1, (1,)) == 0


def test_congruence_suite_catches_a_wrong_multinomial(monkeypatch):
    monkeypatch.setattr(cli, "multinomial",
                        lambda n, lam: multinomial(n, lam) + ((n, lam) == (4, (2, 1, 1))))
    check, bound = cli.SUITES["congruence"]
    assert check(bound) == "congruence fails at p=3, lambda=(2, 1, 1)"
