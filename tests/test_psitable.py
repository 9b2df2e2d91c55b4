"""The multidegree recursion: base case, transposition steps, the filled
tables with their invariants, and the identities they satisfy."""

import dataclasses
import json
import random
import re
from collections import Counter, deque
from fractions import Fraction
from itertools import islice

import pytest
from conftest import lex_divide, store_table, tree_text, with_vanishing_term

from brauerloop.errors import (
    ChainInconsistency,
    ChordPresent,
    IdentityViolation,
    InexactDivision,
)
from brauerloop.exactpoly import MultiPoly
from brauerloop import cli, psitable
from brauerloop.linkpat import LinkPattern, _wrap, apply_e, apply_f, maximal_pattern, reflect
from brauerloop.pfdet import d0_multiplicity_check, degree_determinant
from brauerloop.psitable import (
    MdegTable,
    base_mdeg,
    compute_table,
    integer_image,
    positivity_spot_check,
    random_point,
    recursion_step,
    reflection_check,
    rotation_check,
    smallarch_check,
    specialize_check,
    stabilizer_check,
    sum_rule_sector,
    sum_rule_total,
    target_degree,
    verify_edges,
    verify_exchange,
)


def test_target_degree():
    assert [target_degree(n) for n in range(2, 7)] == [0, 2, 4, 8, 12]


def test_base_mdeg():
    assert base_mdeg(2) == 1
    b3 = base_mdeg(3)
    assert b3.homogeneous_degree() == target_degree(3)
    assert b3.evaluate([(1, [0, 0, 0])]) == [1]
    for n in (4, 5):
        b = base_mdeg(n)
        assert b.homogeneous_degree() == target_degree(n)
        assert b.evaluate([(1, [0] * n)]) == [1]


def test_recursion_step_round_trip(tables):
    t4 = tables(4)
    base = maximal_pattern(4)
    for i in (1, 2, 3, 4):
        moved = apply_f(base, i)
        stepped = recursion_step(t4.mdeg(base), base, i)
        assert stepped == t4.mdeg(moved)
        back = recursion_step(stepped, moved, i)
        assert back == t4.mdeg(base)


def _division_step(f, n, i):
    """The recursion in its division form, -(2A+z_{i+1}-z_i) d_i(w f)/w - f
    with w = A+z_{i+1}-z_i: the oracle for the conjugated theta_i.  Both
    divisions, d_i's by z_i - z_{i+1} and the one by w, go through the
    general lex_divide, so the oracle shares no kernel with recursion_step."""
    ip = _wrap(i + 1, n)
    w = MultiPoly.linear(n, 1, {ip: 1, i: -1})
    wf = w * f
    d_wf = lex_divide(wf - wf.tau(i), MultiPoly.linear(n, z_coeffs={i: 1, ip: -1}))
    q = lex_divide(d_wf, w)
    return MultiPoly.linear(n, 2, {ip: 1, i: -1}) * q * (-1) - f


def test_recursion_step_matches_division_formula(tables):
    edges = 0
    for n in range(2, 6):
        t = tables(n)
        for rho in t.patterns():
            for i in range(1, n + 1):
                if rho(i) == _wrap(i + 1, n):
                    continue
                f = t.mdeg(rho)
                assert recursion_step(f, rho, i) == _division_step(f, n, i)
                edges += 1
    assert edges == 74  # every transposition edge at N=3..5 (none at N=2)


def test_recursion_step_certifies_exactness():
    # A + z_1 - z_2 does not divide 1, so both forms must refuse the entry
    rho = maximal_pattern(4)
    with pytest.raises(InexactDivision):
        recursion_step(MultiPoly.one(4), rho, 1)
    with pytest.raises(InexactDivision):
        _division_step(MultiPoly.one(4), 4, 1)


def test_recursion_step_rejects_little_arc():
    pi = LinkPattern((2, 1, 4, 3))
    with pytest.raises(ChordPresent):
        recursion_step(MultiPoly.one(4), pi, 1)


def test_table_two_and_three(tables):
    t2 = tables(2)
    assert list(t2.degrees().values()) == [1]
    assert t2.mdeg(LinkPattern((2, 1))) == 1
    t3 = tables(3)
    assert sorted(t3.degrees().values()) == [1, 1, 1]
    assert t3.degree_sum() == 3


def test_table_four_degrees(tables):
    t4 = tables(4)
    assert t4.degrees() == {
        LinkPattern((2, 1, 4, 3)): 3,
        LinkPattern((3, 4, 1, 2)): 1,
        LinkPattern((4, 3, 2, 1)): 3,
    }
    assert t4.degree_sum() == 7


def test_table_five_degree_sum(tables):
    t5 = tables(5)
    assert len(t5.patterns()) == 15
    assert t5.degree_sum() == 55


def test_tables_validate(tables):
    for n in range(2, 6):
        tables(n).validate()


def test_validate_catches_tampering(tables):
    t3 = tables(3)
    pats = t3.patterns()
    # wrong homogeneous degree
    bad = dict(t3.entries)
    bad[pats[0]] = MultiPoly.gen_a(3)
    with pytest.raises(ChainInconsistency):
        MdegTable(3, bad, t3.edges).validate()
    # common factor in the family
    doubled = {pi: p * 2 for pi, p in t3.entries.items()}
    with pytest.raises(ChainInconsistency):
        MdegTable(3, doubled, t3.edges).validate()
    # a pattern with no entry: the build stores one orbit of three patterns,
    # so only the coverage check can tell the two left from a whole table
    assert len(t3.stored) == 1 and pats[-1] != maximal_pattern(3)
    partial = dict(t3.entries)
    del partial[pats[-1]]
    with pytest.raises(ChainInconsistency, match=re.escape(f"no entry for patterns {[pats[-1]]}")):
        MdegTable(3, partial, t3.edges).validate()


def test_degree_rejects_non_integer_value():
    # entries live in Z[A, z]: a non-integral coefficient is refused when built
    with pytest.raises(ValueError, match="not an integer"):
        MultiPoly.const(Fraction(1, 2), 3)


TABLE_HASHES = {
    2: "9fb8712be34bdf95193cd0d8acf08c9d5a9f6762d7f60819f9ff48677a49b703",
    3: "f9c66ecec6770672ea047d3782509383a55f8a61b63393879a5974d41f6ae3cc",
    4: "cd9205eb37d6150e7dec937f580ea820d1cfb59c044e82951af1919ee6fdabc4",
    5: "f381ca162463d129132f8408373c3d7332091105dc871f871326c4933f47be7c",
    6: "177afa508de03543058c1c18960ae919db9847a82d6703e1f3c60eeeaf34b211",
}


def test_table_content_hashes_are_pinned(tables):
    assert {n: tables(n).content_hash() for n in TABLE_HASHES} == TABLE_HASHES


def test_canonical_text_is_json_dumps_of_the_tree(tables, tmp_path):
    # built tables store one entry per orbit, loaded ones every entry
    # (equal tables have one tree, so the built table's serves all three)
    for n in range(2, 7):
        built = tables(n)
        want = tree_text(built)
        store = cli.TableStore(tmp_path)
        cli.write_table(built, store.path(n))
        for table in (dataclasses.replace(built), store.load(n),
                      MdegTable.from_obj(json.loads(want)), MdegTable.from_text(n, want)):
            assert table == built
            assert table.canonical_text() == want
    # hand-built tables: every stored entry placed on itself, edges null or absent
    t = tables(4)
    base = maximal_pattern(4)
    for table in (MdegTable(4, dict(t.entries), {}),
                  MdegTable(4, dict(t.entries), {pi: None for pi in t.place}),
                  MdegTable(4, {base: t.mdeg(base)}, {base: None}),
                  MdegTable(4, {base: MultiPoly.zero(4)}, dict(t.edges)),
                  with_vanishing_term(t)):
        assert table.canonical_text() == tree_text(table)


def test_table_is_read_only(tables):
    t3 = tables(3)
    pi = t3.patterns()[0]
    with pytest.raises(TypeError):
        t3.entries[pi] = MultiPoly.one(3)
    with pytest.raises(TypeError):
        t3.edges[pi] = None
    with pytest.raises(TypeError):
        t3.stored[pi] = MultiPoly.one(3)
    with pytest.raises(TypeError):
        t3.place[pi] = (pi, 0, False)
    # the table copies what it is given, so its hash cannot go stale
    entries = dict(t3.entries)
    twin = MdegTable(3, entries, t3.edges)
    entries[pi] = MultiPoly.one(3)
    assert twin == t3 and {**twin.entries} == dict(t3.entries)
    assert twin.content_hash() == TABLE_HASHES[3]


def test_edge_order_does_not_matter(tables):
    # every move, tree edge or not, reproduces the stored entry
    assert sum(verify_edges(tables(n))["edges"] for n in (3, 4, 5)) == 74


def tree_build(n):
    """The sweep with one recursion step per pattern: the oracle of the orbit build.

    The same popleft sweep over _moves; the first move into a pattern
    computes its entry and is its edge.
    """
    pi0 = maximal_pattern(n)
    entries = {pi0: base_mdeg(n)}
    edges = {pi0: None}
    work = deque([pi0])
    while work:
        rho = work.popleft()
        for i, sigma in psitable._moves(rho):
            if sigma not in entries:
                entries[sigma] = recursion_step(entries[rho], rho, i)
                edges[sigma] = (i, rho)
                work.append(sigma)
    return entries, edges


def test_orbit_build_matches_tree_build(tables):
    for n in range(2, 7):
        entries, edges = tree_build(n)
        table = tables(n)
        # the same patterns in the same order, with equal entries and edges
        assert list(table.entries.items()) == list(entries.items())
        assert list(table.edges.items()) == list(edges.items())


def test_build_takes_one_step_per_orbit(monkeypatch):
    calls, derived = [], []
    exact, dihedral = recursion_step, MultiPoly.dihedral

    def counted(mdeg, rho, i):
        calls.append((rho, i))
        return exact(mdeg, rho, i)

    def counted_dihedral(self, r, flip=False):
        derived.append((r, flip))
        return dihedral(self, r, flip)

    monkeypatch.setattr(psitable, "recursion_step", counted)
    monkeypatch.setattr(MultiPoly, "dihedral", counted_dihedral)
    for n, steps in ((5, 2), (6, 4)):
        calls.clear()
        derived.clear()
        table = compute_table(n)
        assert len(calls) == len(table.stored) - 1 == steps
        assert list(table.stored)[1:] == [apply_f(rho, i) for rho, i in calls]
        # no entry is derived but the sources of the steps
        assert len(derived) <= steps
        assert table.content_hash() == TABLE_HASHES[n]
        store_table(table)


def test_stabilizer_check_catches_tampering():
    table = compute_table(4)
    assert stabilizer_check(table) == {"symmetries": 10}
    base = maximal_pattern(4)  # (1 3)(2 4): every rotation and reflection fixes it
    bad = table.stored[base] + MultiPoly.gen_z(4, 1) ** target_degree(4)
    loaded = MdegTable.from_obj(json.loads(table.canonical_text()))
    for t in (table, loaded):
        with pytest.raises(ChainInconsistency) as err:
            stabilizer_check(MdegTable(4, {**t.stored, base: bad}, t.edges, t.place))
        assert str(err.value) == f"symmetry r=1, flip=False fixes {base} but not its entry"


def test_from_text_reads_only_the_canonical_text(tables):
    text = tables(4).canonical_text()
    assert MdegTable.from_text(4, text) == tables(4)
    empty = MdegTable(4, {}, {})
    assert MdegTable.from_text(4, empty.canonical_text()) == empty
    for bad, reason in ((" " + text, "open with its edges"),
                        (text.replace(',"entries"', ' ,"entries"'), "no entries after"),
                        (text.replace('"entries":[[', '"entries":[ [', 1), "Expecting value"),
                        (text.replace("]]]],[[", "]]]] ,[[", 1), "no entry list end"),
                        (text.replace(']],"n"', '] ],"n"'), "no entry list end"),
                        (text.replace('],"n"', '] ,"n"'), "close with its size 4"),
                        (text[:-1], "close with its size 4"),
                        (text + "\n", "close with its size 4"),
                        (text.replace('"n":4', '"n":5'), "close with its size 4")):
        with pytest.raises(ValueError, match=reason):
            MdegTable.from_text(4, bad)


def test_loaded_table_equals_built_and_passes_stabilizer_check(tables):
    # a loaded table stores every entry, so every pattern's stabilizer is checked
    for n, symmetries in zip(range(2, 7), (3, 3, 13, 15, 45)):
        built = tables(n)
        loaded = MdegTable.from_obj(json.loads(built.canonical_text()))
        assert len(loaded.stored) == len(loaded.place) == len(built.place)
        assert loaded == built
        assert stabilizer_check(loaded) == {"symmetries": symmetries}


@pytest.mark.parametrize("n", range(2, 7))
def test_degree_is_the_entry_at_zero(tables, n):
    # read off the representative, as every symmetry keeps the value at z = 0
    table = tables(n)
    for pi in table.patterns():
        assert table.degree(pi) == table.mdeg(pi).z_free_sum()


def test_orbit_table_seven():
    table = compute_table(7)
    assert len(table.place) == 105 and len(table.stored) == 11
    sizes = Counter(rep for rep, _, _ in table.place.values())
    assert sum(sizes[rep] * entry.z_free_sum() for rep, entry in table.stored.items()) \
        == degree_determinant(7) == 6153
    assert all(table.degree(pi) == table.mdeg(pi).z_free_sum() for pi in table.patterns())
    assert stabilizer_check(table) == {"symmetries": 7}
    assert sum(len(entry.terms) for entry in table.stored.values()) == 1417564
    for entry in table.stored.values():
        assert entry.homogeneous_degree() == target_degree(7)


def test_verify_edges_compares_non_tree_edges(tables, monkeypatch):
    table = tables(4)
    rho, i = next((rho, i) for rho in table.patterns() for i in range(1, 5)
                  if rho(i) != _wrap(i + 1, 4)
                  and table.edges[apply_f(rho, i)] not in (None, (i, rho)))
    sigma = apply_f(rho, i)
    exact = recursion_step

    def perturbed(mdeg, at, j):
        value = exact(mdeg, at, j)
        return value + 1 if (at, j) == (rho, i) else value

    monkeypatch.setattr(psitable, "recursion_step", perturbed)
    # the build never takes the non-tree edge, so it cannot see the change
    assert compute_table(4).content_hash() == TABLE_HASHES[4]
    with pytest.raises(ChainInconsistency) as err:
        verify_edges(table)
    assert str(err.value) == f"chains disagree at {sigma} via f_{i} from {rho}"


def test_exchange_identity(tables):
    assert verify_exchange(tables(2)) == {"identities": 2}
    assert verify_exchange(tables(3)) == {"identities": 9}
    assert verify_exchange(tables(4)) == {"identities": 12}
    assert verify_exchange(tables(5)) == {"identities": 75}


def literal_exchange(table, i, pi):
    """lhs - rhs of the exchange identity as printed, a P + c F + b E - r T, by * and +."""
    n = table.n
    one = MultiPoly.one(n)
    u = MultiPoly.linear(n, 0, {i: 1, _wrap(i + 1, n): -1})
    esum = MultiPoly.zero(n)
    for rho in table.patterns():
        if apply_e(rho, i) == pi:
            esum = esum + table.psi(rho)
    a, b, c, r = (one - u) * 2, u * 2, u * (one - u), (one * 2 - u) * (one + u)
    return (a * table.psi(pi) + c * table.psi(apply_f(pi, i)) + b * esum
            - r * table.psi(pi).tau(i))


def with_monomial(table, pi, k):
    """The table with z_k^d added to the entry of pi, d the entries' degree."""
    n = table.n
    term = MultiPoly.gen_z(n, k) ** target_degree(n)
    return MdegTable(n, {**table.entries, pi: table.mdeg(pi) + term}, table.edges)


def test_exchange_residual_is_the_literal_difference(tables):
    for n in range(2, 6):
        t = tables(n)
        pats = t.patterns()
        doubled = MdegTable(n, {**t.entries, pats[0]: t.mdeg(pats[0]) * 2}, t.edges)
        for table in (t, doubled, with_monomial(t, pats[-1], n)):
            residuals = list(exchange_residuals(table))
            assert [(i, pi) for i, pi, _ in residuals] == [
                (i, pi) for i in range(1, n + 1) for pi in pats]
            for i, pi, residual in residuals:
                assert residual == literal_exchange(table, i, pi)
            # N=2 has one entry, and the identity is linear in it
            assert any(r for _, _, r in residuals) == (table is not t and n > 2)


def test_exchange_catches_scaling(tables):
    t3 = tables(3)
    bad = dict(t3.entries)
    pi = t3.patterns()[0]
    bad[pi] = bad[pi] * 2
    with pytest.raises(IdentityViolation):
        verify_exchange(MdegTable(3, bad, t3.edges))
    for n in (4, 5):  # one monomial added to each entry in turn
        t = tables(n)
        pats = t.patterns()
        for index, pi in enumerate(pats):
            bad = with_monomial(t, pi, index % n + 1)
            # the first failing position in verify_exchange's order, by the literal form
            i, sigma = next((i, sigma) for i in range(1, n + 1) for sigma in pats
                            if literal_exchange(bad, i, sigma))
            with pytest.raises(IdentityViolation) as err:
                verify_exchange(bad)
            assert str(err.value) == f"exchange identity fails at i={i}, {sigma}"


def exchange_residuals(table):
    """(i, pi, lhs - rhs of the exchange identity at i and pi), i = 1..n outer.

    One MultiPoly.horner_u call per position and pattern, in the Horner
    form verify_exchange derives: the per-position oracle for its packed
    check, which sums every pattern of a position in one call.
    """
    n = table.n
    pats = table.patterns()
    psis = {pi: table.psi(pi) for pi in pats}
    for i in range(1, n + 1):
        preimage = {}
        for rho in pats:
            preimage.setdefault(apply_e(rho, i), []).append(rho)
        for pi in pats:
            p, f = psis[pi], psis[apply_f(pi, i)]
            t = p.tau(i)
            middle = [(1, f), (-2, p), (-1, t)]
            middle += [(2, psis[rho]) for rho in preimage.get(pi, ())]
            yield i, pi, MultiPoly.horner_u(n, i, [[(2, p), (-2, t)], middle,
                                                   [(1, t), (-1, f)]])


def oracle_witness(table):
    """The message verify_exchange owes the table: its first failing (i, pi) by the oracle, or None."""
    failing = next(((i, pi) for i, pi, residual in exchange_residuals(table) if residual), None)
    return None if failing is None else "exchange identity fails at i=%d, %s" % failing


def packed_witness(table):
    """What verify_exchange says of the table: None when it passes, else its message."""
    try:
        assert verify_exchange(table) == {"identities": table.n * len(table.patterns())}
    except IdentityViolation as err:
        return str(err)
    return None


def with_entries(table, changes, cls=MdegTable):
    """The table with changes[pi](entry) in place of the entry of each pi in changes."""
    entries = dict(table.entries)
    for pi, change in changes.items():
        entries[pi] = change(entries[pi])
    return cls(table.n, entries, table.edges)


def listed_last(table, pi):
    """The table with pi moved to the end of its patterns() order."""
    order = tuple(p for p in table.patterns() if p != pi) + (pi,)
    cls = type("ListedLast", (MdegTable,), {"patterns": lambda self: order})
    return with_entries(table, {}, cls)


def tampered(t):
    """Tables on which the exchange check must fail, each with its label.

    One monomial added to each entry in turn; the first entry scaled by
    2^64, so that the digit width must grow; z_1^d added to the two
    patterns listed last among those with a chord (1, 2), which fail at
    position 1 and at no other pattern there, as f_1 and e_1 fix them; and
    one such pattern moved to the end of the order, so that the only
    failing pattern at position 1 is the one held in the top digit.

    No table fails only at the last pattern of the last position: the
    residuals of a position sum to (2 + u - u^2)(S - tau_i S), S the sum of
    the Psi's, so passing positions 1..n-1 make S symmetric and the
    residuals at position n sum to zero.
    """
    n, pats = t.n, t.patterns()
    for k, pi in enumerate(pats):
        yield f"monomial/{k}", with_monomial(t, pi, k % n + 1)
    yield "scaled", with_entries(t, {pats[0]: lambda p: p * 2 ** 64})
    chorded = [pi for pi in pats if pi(1) == 2]
    if n > 2:
        bump = MultiPoly.gen_z(n, 1) ** target_degree(n)
        yield "two", with_entries(t, {pi: lambda p: p + bump for pi in chorded[-2:]})
        yield "top", listed_last(with_entries(t, {chorded[0]: lambda p: p + bump}), chorded[0])


@pytest.mark.parametrize("n", range(2, 7))
def test_packed_exchange_names_the_oracle_witness(tables, n):
    t = tables(n)
    assert packed_witness(t) is None and oracle_witness(t) is None
    cases = tampered(t) if n < 6 else islice(tampered(t), 0, None, 4)
    for label, bad in cases:
        # N=2 has one entry, and the identity is linear in it
        want = oracle_witness(bad)
        assert packed_witness(bad) == want, label
        assert (want is None) == (n == 2), label


def test_packed_exchange_witness_shapes(tables):
    t = tables(5)
    cases = dict(tampered(t))
    chorded = [pi for pi in t.patterns() if pi(1) == 2]
    assert packed_witness(cases["two"]) == f"exchange identity fails at i=1, {chorded[-2]}"
    top = cases["top"]
    assert top.patterns()[-1] == chorded[0]
    assert packed_witness(top) == f"exchange identity fails at i=1, {chorded[0]}"
    failing = [pi for i, pi, residual in exchange_residuals(top) if i == 1 and residual]
    assert failing == [chorded[0]]


def exchange_width(table):
    """bit_length((20 + 4K) B) + 1, B the largest |coefficient| of any Psi and K
    the largest number of patterns one e_i glues to one pattern."""
    pats = table.patterns()
    bound = max(abs(c) for pi in pats for c in table.psi(pi).terms.values())
    fan_in = max(max(Counter(apply_e(rho, i) for rho in pats).values())
                 for i in range(1, table.n + 1))
    return ((20 + 4 * fan_in) * bound).bit_length() + 1


def balanced_digits(c, width, count):
    """The count digits d_k of c = sum_k 2^(width k) d_k with -2^(width-1) <= d_k < 2^(width-1)."""
    digits = []
    for _ in range(count):
        d = (c + (1 << width - 1) & (1 << width) - 1) - (1 << width - 1)
        digits.append(d)
        c = (c - d) >> width
    assert c == 0
    return digits


@pytest.mark.parametrize("n", range(2, 6))
def test_packed_residual_digits_are_the_oracle_residuals(monkeypatch, tables, n):
    """Each horner_u call of verify_exchange returns sum_k 2^(s k) R_k for the width
    s its docstring derives: read back as balanced digits, it gives every
    oracle residual of its position, up to the first failing one."""
    horner_u = MultiPoly.horner_u
    t = tables(n)
    for label, table in [("table", t), *tampered(t)]:
        pats, width = table.patterns(), exchange_width(table)
        oracle = {(i, pi): residual.terms for i, pi, residual in exchange_residuals(table)}
        packed = []

        def spy(nz, i, layers):
            packed.append((i, horner_u(nz, i, layers)))
            return packed[-1][1]

        with monkeypatch.context() as patch:
            patch.setattr(MultiPoly, "horner_u", staticmethod(spy))
            assert (packed_witness(table) is None) == (label == "table" or n == 2)
        assert [i for i, _ in packed] == list(range(1, len(packed) + 1))
        for i, residual in packed:
            got = [{} for _ in pats]
            for key, c in residual.terms.items():
                for k, d in enumerate(balanced_digits(c, width, len(pats))):
                    if d:
                        got[k][key] = d
            assert got == [oracle[i, pi] for pi in pats], (label, i)


def test_sum_rule_sector(tables):
    assert sum_rule_sector(tables(2)) == {"patterns": 1}
    assert sum_rule_sector(tables(4)) == {"patterns": 2}
    with pytest.raises(ValueError):
        sum_rule_sector(tables(3))


def test_sum_rule_total(tables):
    assert sum_rule_total(tables(2), points=6)["degree_sum"] == 1
    assert sum_rule_total(tables(3), points=6)["degree_sum"] == 3
    assert sum_rule_total(tables(4), points=6)["degree_sum"] == 7


@pytest.mark.parametrize("check, keyword", [
    (sum_rule_total, "points"), (positivity_spot_check, "trials"),
    (d0_multiplicity_check, "points")])
@pytest.mark.parametrize("count", [0, -4])
def test_spot_checks_need_a_point(tables, check, keyword, count):
    with pytest.raises(ValueError, match=f"{keyword} must be at least 1, not {count}"):
        check(tables(2), **{keyword: count})


def test_sum_rule_total_names_the_failing_point(tables):
    bad = with_vanishing_term(tables(4))
    assert bad.degree_sum() == 7
    a, z = random_point(4, random.Random(2011))
    with pytest.raises(IdentityViolation,
                       match=re.escape(f"Pfaffian total multidegree fails at a={a}, z={z}")):
        sum_rule_total(bad)


# the message of the first failure when the added term vanishes at the
# first k points that sum_rule_total draws (seed 2011), k = 1, 2, 3
LATER_PFAFFIAN_FAILURES = [
    "a=19/7, z=[Fraction(-1, 1), Fraction(-36, 1), Fraction(-3, 1), Fraction(11, 9)]",
    "a=59/15, z=[Fraction(37, 1), Fraction(-26, 11), Fraction(-3, 11), Fraction(4, 5)]",
    "a=9, z=[Fraction(3, 4), Fraction(10, 3), Fraction(-2, 11), Fraction(-1, 1)]",
]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sum_rule_total_names_a_later_failing_point(tables, k):
    rng = random.Random(2011)
    zeros = [integer_image(*random_point(4, rng)) for _ in range(k)]
    with pytest.raises(IdentityViolation) as err:
        sum_rule_total(with_vanishing_term(tables(4), zeros))
    assert str(err.value) == ("Pfaffian total multidegree fails at "
                              + LATER_PFAFFIAN_FAILURES[k - 1])


def fold_of_entries(table: MdegTable) -> MultiPoly:
    """The sum of the entries by repeated addition, pattern by pattern."""
    total = MultiPoly.zero(table.n)
    for pi in table.patterns():
        total = total + table.mdeg(pi)
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mdeg_sum_is_the_fold_once_per_table(tables, n):
    built = tables(n)
    for table in (built, MdegTable.from_obj(json.loads(built.canonical_text()))):
        total = table.mdeg_sum()
        assert total == fold_of_entries(table)
        assert table.mdeg_sum() is total


def test_specialization(tables):
    t4, t2 = tables(4), tables(2)
    counts = [specialize_check(t4, t2, i)["patterns"] for i in (1, 2, 3)]
    assert counts == [1, 1, 1]  # one pattern holds each literal little arc
    with pytest.raises(ValueError):
        specialize_check(t4, tables(3), 1)
    with pytest.raises(ValueError):
        specialize_check(t4, t2, 4)  # the glued pair must be literal neighbours


def test_smallarch(tables):
    t4 = tables(4)
    for i in (1, 2, 3, 4):
        assert smallarch_check(t4, i)["patterns"] == 1


def test_positivity_and_rotation(tables):
    positivity_spot_check(tables(3), trials=50)
    rotation_check(tables(3))
    rotation_check(tables(4))


def test_reflection_catches_tampering(tables):
    t5 = tables(5)
    assert reflection_check(t5) == {"patterns": 15}
    pi = next(pi for pi in t5.patterns() if reflect(pi) != pi)
    for bad_entry in (-t5.mdeg(pi), t5.mdeg(pi) * 2):
        bad = dict(t5.entries)
        bad[pi] = bad_entry
        with pytest.raises(IdentityViolation) as err:
            reflection_check(MdegTable(5, bad, t5.edges))
        assert str(err.value) in {f"reflection covariance fails at {p}"
                                  for p in (pi, reflect(pi))}


def test_positivity_at_integer_points_matches_psi(tables):
    # mdeg(20, k) = 20^d Psi(k/20): the integer point carries Psi's sign
    t4 = tables(4)
    rng = random.Random(5)
    for pi in t4.patterns():
        p = t4.mdeg(pi)
        k = [rng.randint(-9, 9) for _ in range(4)]
        z = [Fraction(x, 20) for x in k]
        [v], [psi] = p.evaluate([(20, k)]), t4.psi(pi).evaluate([(1, z)])
        assert v == 20 ** target_degree(4) * psi


def test_positivity_names_its_witness(tables):
    t4 = tables(4)
    pi = t4.patterns()[0]
    bad = dict(t4.entries)
    bad[pi] = -bad[pi]
    with pytest.raises(IdentityViolation, match=r"evaluates to -.* at z=\[Fraction"):
        positivity_spot_check(MdegTable(4, bad, t4.edges), trials=1)


# at seed 97 the third trial is k = [-9, -1, 2, -9], the fourth [-7, 5, 6, -6]
AT_THIRD = "at z=[Fraction(-9, 20), Fraction(-1, 20), Fraction(1, 10), Fraction(-9, 20)]"
AT_FOURTH = "at z=[Fraction(-7, 20), Fraction(1, 4), Fraction(3, 10), Fraction(-3, 10)]"


@pytest.mark.parametrize("factors, want", [
    # the last pattern fails at the third trial, the second only at the fourth
    ({1: "fourth", 2: "third"}, f"(1 4)(2 3) evaluates to -24459/200000 {AT_THIRD}"),
    # both fail first at the third trial: the earlier pattern is named
    ({1: "third", 2: "third"}, f"(1 3)(2 4) evaluates to -1581/40000 {AT_THIRD}"),
    ({0: "fourth"}, f"(1 2)(3 4) evaluates to -535857/640000 {AT_FOURTH}"),
    ({0: "fourth", 1: "fourth"}, f"(1 2)(3 4) evaluates to -535857/640000 {AT_FOURTH}"),
])
def test_positivity_names_the_first_failing_trial_then_pattern(tables, factors, want):
    t4 = tables(4)
    z1, z2, z3, z4 = (MultiPoly.gen_z(4, i) for i in range(1, 5))
    # at the first five trials z1 + z2 - z4 reads 9, 8, -1, 4, 3 (times 20)
    # and -(z2 + z3 + z4) reads 2, 9, 8, -5, 6
    first_negative = {"third": z1 + z2 - z4, "fourth": -(z2 + z3 + z4)}
    bad = dict(t4.entries)
    for index, trial in factors.items():
        pi = t4.patterns()[index]
        bad[pi] = bad[pi] * first_negative[trial]
    with pytest.raises(IdentityViolation) as err:
        positivity_spot_check(MdegTable(4, bad, t4.edges), trials=5)
    assert str(err.value) == want


def prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


def test_integer_image_is_the_least_integral_multiple(tables):
    rng = random.Random(31)
    for n in (3, 4):
        total, d = tables(n).mdeg_sum(), target_degree(n)
        for _ in range(10):
            a, z = random_point(n, rng)
            ai, zi = integer_image(a, z)
            assert all(type(v) is int for v in [ai, *zi])
            scale = ai / a
            assert scale.denominator == 1 and [scale * x for x in z] == zi
            scale = scale.numerator
            for p in prime_factors(scale):
                # the least integral multiple divides every other one
                assert any((scale // p * x).denominator != 1 for x in [a, *z])
            at_image, at_point = total.evaluate([(ai, zi), (a, z)])
            assert at_image == scale ** d * at_point


def test_random_point_avoids_poles():
    rng = random.Random(99)
    for _ in range(50):
        a, z = random_point(4, rng)
        assert len(set(z)) == 4
        assert all(a + zi - zj != 0 for zi in z for zj in z)
        assert isinstance(a, Fraction)
