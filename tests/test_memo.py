"""The memo of per-matrix records behind ``as_matrix``, the partition,
``lu_factor`` and ``determinant``, and the lazy Schur ``delta``.  Only an
analysed matrix gets a record: Schur pivot blocks are factored outside it, and
a call that reads its matrix once validates it in place.

The memo may only remove work: every public call must give the same bits
with a warm memo as after clearing it, whatever the caller does to its own
arrays between calls.
"""

import argparse
import dataclasses
import itertools
import sys
import threading
import traceback

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from diagdom import (
    SingularBlockError,
    SingularMatrixError,
    ToolkitError,
    ValidationError,
    as_matrix,
    b1_split,
    classify,
    comparison_matrix,
    corner_norms,
    determinant,
    dominance_bracket,
    dominance_ordering,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    h_scaling,
    huang_bracket,
    inf_norm,
    inverse,
    is_h_matrix,
    is_p_matrix,
    lcp_b1_bound,
    lu_factor,
    matrix_digest,
    quotient_formula_check,
    row_sum,
    run_experiment,
    s_sdd1_schur_bound,
    schur_complement,
    sdd1_epsilon_bound,
    sdd1_schur_bound,
    tilde_set_identity_check,
)
from diagdom import cli, core, oracle, schur
from diagdom.core import MEMO_RECORDS
from diagdom.mmio import format_matrix_market
from test_vectorized import draw, same, schur_instance


def clear_memo():
    with core._LOCK:
        core._MEMO.clear()


def memo_size():
    return len(core._MEMO)


def within_bounds():
    """At most MEMO_RECORDS records."""
    return memo_size() <= MEMO_RECORDS


def fingerprint(obj):
    """A comparable value that differs whenever any bit of ``obj`` differs."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (float, np.floating)):
        return ("float", float(obj).hex())
    if isinstance(obj, dict):
        return ("dict", tuple(sorted((repr(k), fingerprint(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(fingerprint(v) for v in obj))
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj) if not f.name.startswith("_")]
        if hasattr(obj, "delta"):
            names.append("delta")
        return (type(obj).__name__, tuple((k, fingerprint(getattr(obj, k))) for k in names))
    return (type(obj).__name__, repr(obj))


def outcome(call):
    try:
        return fingerprint(call())
    except ToolkitError as exc:
        return ("raises", type(exc).__name__, str(exc))


def public_calls(M, kind):
    """Every public call an audit makes on one instance, with raw (unvalidated) input."""
    A = b1_split(M).a if kind == "b1" else M
    part = dominance_partition(A)
    n, n1, n2 = A.shape[0], list(part.n1), list(part.n2)
    alphas = [a for a in ([n2[0]] if n2 else [], n2, n2 + n1[:1], [0], list(range(n - 1)))
              if 0 < len(a) < n]
    calls = [
        lambda: as_matrix(M),
        lambda: dominance_partition(M),
        lambda: classify(A),
        lambda: is_h_matrix(A),
        lambda: determinant(A),
        lambda: inverse(A),
        lambda: sdd1_schur_bound(A),
        lambda: sdd1_epsilon_bound(A),
        lambda: s_sdd1_schur_bound(A, n2),
        lambda: dominance_bracket(A),
        lambda: huang_bracket(A),
        lambda: dominance_bracket(dominance_ordering(A).apply(A)),
        lambda: huang_bracket(dominance_ordering(A).apply(A)),
        lambda: quotient_formula_check(A, list(range(n - 1)), [0]),
    ]
    for alpha in alphas:
        calls.append(lambda alpha=alpha: schur_complement(A, alpha))
        calls.append(lambda alpha=alpha: dominance_partition(schur_complement(A, alpha).complement))
        calls.append(lambda alpha=alpha: tilde_set_identity_check(A, alpha))
    if kind == "b1":
        calls += [lambda: lcp_b1_bound(M), lambda: run_experiment(M, 20, 7),
                  lambda: corner_norms(M), lambda: is_p_matrix(M)]
    return calls


def instance(kind, n, seed):
    if kind == "b1":
        return np.array(draw(generate_b1, n, seed))
    return np.array(schur_instance(kind, n, seed))  # a writable array, as callers pass


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("sdd1", "scaled", "b1", "random")), st.integers(min_value=3, max_value=10),
       st.integers(min_value=0, max_value=2**31 - 1))
@example("sdd1", 33, 1)
@example("b1", 33, 2)
@example("scaled", 64, 3)
@example("random", 64, 4)
def test_warm_memo_gives_cold_bits(kind, n, seed):
    M = instance(kind, n, seed)
    calls = public_calls(M, kind)
    cold = []
    for call in calls:
        clear_memo()
        cold.append(outcome(call))
    clear_memo()
    warm = [outcome(call) for call in calls]
    again = [outcome(call) for call in calls]
    assert warm == cold
    assert again == cold


def test_mutating_the_callers_input_changes_the_result():
    clear_memo()
    A = np.array(generate_sdd1(7, 4, n1_fraction=0.5))
    alpha = [dominance_partition(A).n2[0]]
    before = schur_complement(A, alpha)
    row = before.alpha_bar[0]
    A[row, row] *= 3.0  # the same array, new bytes
    after = schur_complement(A, alpha)
    assert not np.array_equal(before.complement, after.complement)
    assert as_matrix(A)[row, row] == A[row, row]
    assert dominance_partition(A).diag[row] == abs(A[row, row])
    warm = fingerprint(after)
    clear_memo()
    assert fingerprint(schur_complement(A, alpha)) == warm


def test_signed_zeros_are_separate_entries_and_nan_still_raises():
    clear_memo()
    plus = np.array([[2.0, 0.0], [1.0, 3.0]])
    minus = plus.copy()
    minus[0, 1] = -0.0
    a, b = as_matrix(plus), as_matrix(minus)
    assert a is not b
    assert not np.signbit(a[0, 1]) and np.signbit(b[0, 1])
    assert dominance_partition(plus) is not dominance_partition(minus)
    assert memo_size() == 2
    for bad in (np.nan, np.inf):
        c = plus.copy()
        c[0, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            as_matrix(c)
        with pytest.raises(ValidationError, match="finite"):
            dominance_partition(c)
    assert memo_size() == 2


def test_shared_matrix_cannot_be_unlocked():
    M = as_matrix(np.eye(3) * 2.0)
    assert M is as_matrix(np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        M.setflags(write=True)


def test_evicted_immutable_matrix_is_recorded_again_by_identity(monkeypatch):
    A = generate_sdd1(9, 4, n1_fraction=0.5)  # a view of bytes, as every matrix diagdom hands out
    raw = core._immutable_bytes(A)
    assert raw is not None and as_matrix(A) is A
    for k in range(MEMO_RECORDS):  # evict A's record
        dominance_partition(np.eye(k + 2))
    assert all(rec.matrix is not A for rec in core._MEMO)
    created = []

    class Counted(core._Record):
        def __init__(self, matrix, raw):
            created.append(matrix)
            super().__init__(matrix, raw)

    monkeypatch.setattr(core, "_Record", Counted)
    assert as_matrix(A) is A  # adopted, not copied
    part, fact = dominance_partition(A), lu_factor(A)
    assert as_matrix(A) is A and dominance_partition(A) is part and lu_factor(A) is fact
    assert len(created) == 1 and created[0] is A
    assert core._record(A).raw is raw  # compared by the bytes A views, never copied
    # Equal bytes in another bytes object find the same record.
    twin = np.frombuffer(A.tobytes(), dtype=np.float64).reshape(A.shape)
    assert as_matrix(twin) is A and len(created) == 1


def copied_inputs(A):
    """Inputs holding A's values (or a part of them) that the memo must not adopt."""
    n, raw = A.shape[0], A.tobytes()
    return {
        "writable": np.array(A),
        "transpose": A.T,
        "column view": A[:, :n - 1],
        "square part of a buffer": np.frombuffer(raw, count=(n - 1) ** 2).reshape(n - 1, n - 1),
        "offset": np.frombuffer(bytes(8) + raw, offset=8).reshape(n, n),
        "big-endian": np.frombuffer(A.astype(">f8").tobytes(), dtype=">f8").reshape(n, n),
        "bytearray": np.frombuffer(bytearray(raw)).reshape(n, n),
    }


@pytest.mark.parametrize("name", list(copied_inputs(np.eye(2))))
def test_other_input_is_copied_into_its_record(name):
    A = generate_sdd1(6, 2, n1_fraction=0.5)
    X = copied_inputs(A)[name]
    assert core._immutable_bytes(X) is None
    clear_memo()
    if X.shape[0] != X.shape[1]:
        with pytest.raises(ValidationError, match="square"):
            as_matrix(X)
        assert memo_size() == 0
        return
    M = as_matrix(X)
    assert M is not X and not np.shares_memory(M, X)
    assert np.array_equal(M, X) and not M.flags.writeable
    if X.flags.writeable:  # a mutable buffer: the record keeps what it held
        X[0, 0] += 1.0
        assert M[0, 0] != X[0, 0] and as_matrix(X)[0, 0] == X[0, 0]


def test_immutable_input_holding_nan_leaves_no_record():
    raw = np.array([[2.0, np.nan], [1.0, 3.0]]).tobytes()
    X = np.frombuffer(raw).reshape(2, 2)
    assert core._immutable_bytes(X) is raw
    clear_memo()
    for call in (as_matrix, dominance_partition, lu_factor):
        with pytest.raises(ValidationError, match="finite"):
            call(X)
        assert memo_size() == 0


def test_split_and_ordered_copies_are_immutable():
    M = generate_b1(8, 3, n1_fraction=0.45)
    a = b1_split(M).a
    ordered = dominance_ordering(a).apply(a)
    for X in (a, ordered):
        assert core._immutable_bytes(X) is not None
        with pytest.raises(ValueError):
            X.setflags(write=True)
        assert as_matrix(X) is X  # so a bound that reads it next finds it by identity


def test_memo_stays_within_its_record_count(eliminations):
    for n in [2, 3, 32, 33, 300, 512, 64, *range(4, 4 + 2 * MEMO_RECORDS)]:
        A = np.eye(n) * 2.0 + 1.0 / n  # strictly dominant: a complement of each order below
        dominance_partition(A)
        assert within_bounds()
        schur_complement(A, [n - 1])
        assert within_bounds()
    assert memo_size() == MEMO_RECORDS
    # An order-512 audit's A keeps its record and factor while the records of its
    # dominance-ordered copy and its complement arrive; its inverse leaves none.
    A = np.full((512, 512), 1.0 / 512) + np.diag(np.resize([3.0, 0.5], 512))  # odd rows in n1
    ordered = dominance_ordering(A).apply(A)
    assert not np.array_equal(ordered, A)
    del eliminations[:]
    fact = lu_factor(A)
    held = list(core._MEMO)
    inf_norm(inverse(A))
    assert list(core._MEMO) == held
    for step in (lambda: dominance_partition(ordered), lambda: schur_complement(A, [511])):
        step()
        assert within_bounds()
    assert memo_size() == MEMO_RECORDS
    assert lu_factor(A) is fact
    assert eliminations == [512, 1]  # A once, then the pivot block


def test_matrices_alike_in_diagonal_and_first_row_get_two_records():
    # Equal order, diagonal and first row, told apart by the bytes of row 2 alone.
    plus = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 1.0, 4.0]])
    other = plus.copy()
    other[2, 1] = 2.0

    def calls(M):
        return [lambda: as_matrix(M), lambda: dominance_partition(M), lambda: lu_factor(M),
                lambda: determinant(M), lambda: classify(M)]

    cold = []
    for M in (plus, other):
        for call in calls(M):
            clear_memo()
            cold.append(outcome(call))
    clear_memo()
    parts = [dominance_partition(M) for M in (plus, other)]
    facts = [lu_factor(M) for M in (plus, other)]
    assert memo_size() == 2 and parts[0] is not parts[1]
    warm = [outcome(call) for M in (plus, other) for call in calls(M)]
    assert warm == cold
    assert [dominance_partition(M) for M in (plus, other)] == parts  # neither replaced the other
    assert all(lu_factor(M) is f for M, f in zip((plus, other), facts))


def test_single_read_calls_leave_the_table_as_they_found_it():
    M = np.array(generate_b1(6, 2))  # the caller's own array, not a record's
    clear_memo()
    dominance_partition(np.eye(3))
    lcp_b1_bound(M)  # records M's shift part, whose partition run_experiment's bound reads
    ordering = dominance_ordering(b1_split(M).a)
    calls = {
        "inverse": inverse, "inf_norm": inf_norm, "comparison_matrix": comparison_matrix,
        "h_scaling": h_scaling, "is_h_matrix": is_h_matrix, "b1_split": b1_split,
        "apply": ordering.apply, "run_experiment": lambda X: run_experiment(X, 5, 1),
        "corner_norms": corner_norms, "is_p_matrix": is_p_matrix,
        "quotient_formula_check": lambda X: quotient_formula_check(X, [0, 1, 2], [1]),
        "row_sum": lambda X: row_sum(X, 0), "matrix_digest": matrix_digest,
        "format_matrix_market": format_matrix_market,
    }
    nan, inf = M.copy(), M.copy()
    nan[1, 2], inf[2, 1] = np.nan, -np.inf
    bad = [("finite", nan), ("finite", inf), ("complex", M.astype(complex)), ("square", M[:, :5])]
    before = list(core._MEMO)  # the records of eye(3) and of M's shift part, in use order
    assert len(before) == 2
    for name, call in calls.items():
        call(M)
        assert list(core._MEMO) == before, name  # the same records, compared by identity
        for match, X in bad:
            with pytest.raises(ValidationError, match=match):
                call(X)
            assert list(core._MEMO) == before, (name, match)
    # An order-1 matrix is its own determinant, so ``determinant`` reads it once.
    assert determinant(np.array([[-2.5]])).hex() == (-2.5).hex()
    assert list(core._MEMO) == before
    one = [("finite", [[np.nan]]), ("finite", [[-np.inf]]), ("complex", [[1j]]),
           ("square", [[1.0, 2.0]])]
    for match, X in one:
        with pytest.raises(ValidationError, match=match):
            determinant(X)
        assert list(core._MEMO) == before, match


def test_delta_is_built_once_on_first_read():
    A = generate_sdd1(9, 2, n1_fraction=0.5)
    alpha = list(dominance_partition(A).n2[:2])
    res = schur_complement(A, alpha)
    assert res._a_partition is not None  # held until delta is read
    first = res.delta
    assert res._a_partition is None
    assert res.delta is first
    assert not first.flags.writeable
    assert same(first, reference.schur_complement(A, alpha)[4])


def test_delta_absent_when_the_pivot_block_is_not_an_h_matrix():
    A = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 1.0, 4.0]]
    res = schur_complement(A, [0, 1])
    assert res.delta is None
    assert res.delta is None
    assert reference.schur_complement(A, [0, 1])[4] is None


def sweep(A):
    """Criterion 7's sweep of one matrix, as the fingerprints of every result."""
    part = dominance_partition(A)
    out = []
    for size in range(1, len(part.n2) + 1):
        for alpha in itertools.combinations(part.n2, size):
            res = schur_complement(A, list(alpha))
            out.append((fingerprint(res), fingerprint(dominance_partition(res.complement))))
    return out


def in_threads(run, count):
    """``run(k)`` for k < count, one thread each, switching as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_threads_sweeping_different_matrices_match_a_serial_run():
    # More threads than the 2-CPU VM has cores, switching as often as the
    # interpreter allows; every thread also reads one shared lazy delta.
    work = [[np.array(generate_sdd1(n, 50 * k + n, n1_fraction=0.5)) for n in range(6, 11)]
            for k in range(4)]
    clear_memo()
    serial = [[sweep(A) for A in mats] for mats in work]
    clear_memo()
    shared = schur_complement(work[0][-1], [dominance_partition(work[0][-1]).n2[0]])
    results, deltas = [None] * len(work), [None] * len(work)

    def run(k):
        deltas[k] = shared.delta
        results[k] = [[sweep(A) for _ in range(3)] for A in work[k]]

    in_threads(run, len(work))
    assert results == [[[s] * 3 for s in mats] for mats in serial]
    assert all(d is deltas[0] for d in deltas) and deltas[0] is not None
    assert within_bounds()


def test_threads_sweeping_one_matrix_match_a_serial_run():
    # Threads asking one family's members in different orders race to build and keep
    # its sweep outside the lock; each must read its own alpha's member of the sweep
    # it is handed, whichever thread kept it.
    A = generate_sdd1(12, 5, n1_fraction=0.5)
    family = list(itertools.combinations(dominance_partition(A).n2, 3))
    clear_memo()
    serial = {alpha: fingerprint(schur_complement(A, alpha)) for alpha in family}
    results = [None] * 4

    def run(k):
        clear_memo()
        order = family[5 * k:] + family[:5 * k]
        results[k] = [(alpha, fingerprint(schur_complement(A, alpha))) for alpha in order * 2]

    in_threads(run, len(results))
    assert all(got == serial[alpha] for out in results for alpha, got in out)
    assert within_bounds()


# --- factorizations in the records ---------------------------------------------


def pivoting(n, seed):
    """A random matrix of order n that needs row swaps and is safely nonsingular."""
    return np.random.default_rng(seed).standard_normal((n, n)) + np.eye(n)


@pytest.fixture
def eliminations(monkeypatch):
    """The order of each elimination run so far, by counting both kernels and each
    member of a stacked elimination."""
    count = []
    for name in ("_lu_scalar", "_lu_blocked"):
        kernel = getattr(oracle, name)

        def spy(A, thresh, kernel=kernel):
            count.append(A.shape[0])
            return kernel(A, thresh)

        monkeypatch.setattr(oracle, name, spy)
    stack_pivots = oracle._stack_pivots

    def stacked(stack, factors=False):
        count.extend([stack.shape[1]] * len(stack))
        return stack_pivots(stack, factors)

    monkeypatch.setattr(oracle, "_stack_pivots", stacked)
    clear_memo()
    return count


@pytest.mark.parametrize("n", [1, 16, 17, 33, 300])
def test_warm_factorization_gives_cold_bits(eliminations, n):
    A = pivoting(n, n)
    calls = [lambda: lu_factor(A), lambda: determinant(A), lambda: lu_factor(A.copy()),
             lambda: determinant(np.asfortranarray(A))]
    cold = []
    for call in calls:
        clear_memo()
        cold.append(outcome(call))
    clear_memo()
    del eliminations[:]
    warm = [outcome(call) for call in calls]
    again = [outcome(call) for call in calls]
    assert warm == cold
    assert again == cold
    assert eliminations == [n]  # every warm call after the first is a lookup


def test_shared_factor_cannot_be_unlocked():
    A = pivoting(20, 1)
    fact = lu_factor(A)
    assert lu_factor(A) is fact
    with pytest.raises(ValueError):
        fact.packed.setflags(write=True)
    with pytest.raises(ValueError):
        fact.packed[0, 0] = 1.0
    assert fact.lower.flags.writeable  # derived arrays are the caller's own


def test_signed_zero_and_one_ulp_are_separate_factorizations(eliminations):
    plus = np.array([[2.0, 0.0, 1.0], [1.0, 3.0, 0.0], [0.0, 1.0, 4.0]])
    minus = plus.copy()
    minus[0, 1] = -0.0
    ulp = plus.copy()
    ulp[2, 2] = np.nextafter(4.0, 5.0)
    mats = (plus, minus, ulp)
    facts = [lu_factor(M) for M in mats]
    assert eliminations == [3, 3, 3]
    assert not np.signbit(facts[0].packed[0, 1]) and np.signbit(facts[1].packed[0, 1])
    assert facts[2].packed[2, 2] != facts[0].packed[2, 2]
    kept = len(mats) - MEMO_RECORDS  # the most recent MEMO_RECORDS are kept side by side
    assert all(lu_factor(M) is f for M, f in zip(mats[kept:], facts[kept:]))
    assert eliminations == [3, 3, 3] and memo_size() == MEMO_RECORDS
    assert fingerprint(lu_factor(plus)) == fingerprint(facts[0])  # evicted, eliminated again
    assert eliminations == [3, 3, 3, 3]


def test_singular_input_raises_every_time_and_is_never_stored(eliminations):
    good, singular = pivoting(20, 2), np.ones((20, 20))
    kept = lu_factor(good)
    for _ in range(3):
        with pytest.raises(SingularMatrixError, match="column 1"):
            lu_factor(singular)
        assert determinant(singular) == 0.0
    assert lu_factor(good) is kept  # the failures neither replaced nor evicted it
    assert eliminations == [20] * 7  # each singular call eliminated again
    assert core._record(singular).factorization is None


@pytest.mark.parametrize("n", [8, 40])
def test_determinant_then_lu_factor_eliminates_once(eliminations, n):
    A = pivoting(n, 3)
    det = determinant(A)
    fact = lu_factor(A)
    assert eliminations == [n]
    assert det == float(fact.sign * np.prod(fact.packed.diagonal()))


def test_schur_pivot_blocks_leave_no_record(eliminations, monkeypatch):
    A = np.array(generate_sdd1(12, 5, n1_fraction=0.5))
    alpha = list(dominance_partition(A).n2[:3])
    clear_memo()
    res = schur_complement(A, alpha)
    held = [r.matrix for r in core._MEMO]
    assert len(held) == 2 and held[0] is as_matrix(A) and held[1] is res.complement
    clear_memo()
    quotient_formula_check(A, list(range(11)), [0])
    assert core._MEMO == []  # A is read once, so not even A has a record
    # The ``schur`` subcommand eliminates the pivot block for its complement, then
    # factors the block again for its determinant, as criterion 7 does, and A and A/alpha.
    clear_memo()
    del eliminations[:]
    report = cli._cmd_schur(A, argparse.Namespace(alpha=",".join(str(i + 1) for i in alpha)))
    assert eliminations == [len(alpha), len(alpha), 12, 12 - len(alpha)]
    block = determinant(A[np.ix_(alpha, alpha)])
    assert block.hex() == "0x1.62fee80000000p+10"
    identity = report["result"]["determinant_identity"]
    assert identity["det_block_times_det_complement"] == block * determinant(
        report["result"]["complement"])
    # A's first complement is computed alone and kept, so asking for it again is a
    # lookup; the next member sweeps alpha's family, each pivot block once, and every
    # member is then answered from the sweep.
    family = list(itertools.combinations(dominance_partition(A).n2, len(alpha)))
    assert len(family) > 1 and family[0] == tuple(alpha)
    clear_memo()
    schur_complement(A, alpha)
    del eliminations[:]
    for member in family:
        schur_complement(A, member)
    assert eliminations == [len(alpha)] * len(family)
    # Criterion 7's sweep of an order-8 matrix, complements and their partitions,
    # records A and one complement per alpha (reading a ``delta`` would add its
    # comparison block's inverse).
    A = np.array(generate_sdd1(8, 3, n1_fraction=0.5))
    n2 = dominance_partition(A).n2
    alphas = [list(a) for size in range(1, len(n2) + 1) for a in itertools.combinations(n2, size)]
    created = []

    class Counted(core._Record):
        def __init__(self, arr, raw):
            created.append(arr.shape)
            super().__init__(arr, raw)

    monkeypatch.setattr(core, "_Record", Counted)
    clear_memo()
    for alpha in alphas:
        dominance_partition(schur_complement(A, alpha).complement)
    assert len(alphas) > 1 and len(created) == 1 + len(alphas)


def test_family_hit_builds_nothing_per_member(monkeypatch):
    # One sweep of a 20-member family builds every member's complement, partition and
    # result; asking for the other 19 is then a lookup, and a member's complement is
    # found in the memo with the family's partition of it.
    A = generate_sdd1(12, 5, n1_fraction=0.5)  # immutable, so even its lookups check nothing
    family = list(itertools.combinations(dominance_partition(A).n2, 3))
    assert len(family) == 20
    clear_memo()
    schur_complement(A, family[-1])  # the first complement of a record, alone
    first = schur_complement(A, family[0])  # sweeps the family
    built = []
    for module, name in ((core, "_build_partition"), (schur, "_build_partition"),
                         (core, "_checked")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda M, *a, real=real, **k:
                            built.append(np.shape(M)) or real(M, *a, **k))
    answers = [(res, dominance_partition(res.complement))
               for res in (schur_complement(A, member) for member in family[1:])]
    assert built == []  # no complement, nor A, was checked or partitioned
    monkeypatch.undo()
    kept = core._record(A).family  # (result, complement partition) per member
    for (res, cpart), member in zip(answers, family[1:], strict=True):
        kept_res, kept_part = kept[member]
        assert res is kept_res and cpart is kept_part
    # The ``schur`` subcommand reads the family's member and the block determinant.
    report = cli._cmd_schur(A, argparse.Namespace(alpha=",".join(str(i + 1) for i in family[0])))
    block = determinant(A[np.ix_(family[0], family[0])])
    assert block.hex() == "0x1.62fee80000000p+10"
    identity = report["result"]["determinant_identity"]
    assert identity["det_block_times_det_complement"] == block * determinant(first.complement)


@pytest.fixture
def sweeps(monkeypatch):
    """The member count of every Schur sweep built so far."""
    built = []
    sweep = schur._sweep

    def counted(A, alphas, part):
        built.append(len(alphas))
        return sweep(A, alphas, part)

    monkeypatch.setattr(schur, "_sweep", counted)
    clear_memo()
    return built


@pytest.mark.parametrize("n", [16, 64])
def test_family_above_the_chunk_bound_is_computed_alone(sweeps, eliminations, n):
    # Strictly dominant, so alpha = {h} has n family members.  At order 16 they
    # fit one stacked chunk of order 15; at order 64, 64 members exceed the 16
    # of order 63, and every call builds its own complement only.
    A = np.eye(n) * 2.0 + 1.0 / n
    fits = n <= oracle._chunk_length(n - 1)
    assert fits == (n == 16)
    for alpha in ([0], [1], [2], [0]):
        schur_complement(A, alpha)
    assert sweeps == ([1, n] if fits else [1, 1, 1, 1])  # the first complement alone
    assert eliminations == ([1] * (1 + n) if fits else [1, 1, 1, 1])


def test_a_record_keeps_one_family_at_a_time(sweeps):
    A = np.array(generate_sdd1(10, 4, n1_fraction=0.5))
    part = dominance_partition(A)
    singles = [[h] for h in part.n2]
    pairs = [list(p) for p in itertools.combinations(part.n2, 2)]
    beyond = [sorted(part.n2 + (e,)) for e in part.n1]
    assert min(len(singles), len(pairs), len(beyond)) > 1
    clear_memo()
    for alpha in singles + pairs + singles + beyond + singles[:1]:
        schur_complement(A, alpha)
        assert within_bounds()
    # A's first complement alone; then each family once per run of its members,
    # since a record's sweep replaces the one it kept before.
    assert sweeps == [1, len(singles), len(pairs), len(singles), len(beyond), len(singles)]
    # n2 is a family of one: swept alone, kept like any sweep, and asked again a lookup,
    # its complement's partition the one kept with it.
    lone = [schur_complement(A, part.n2) for _ in range(2)]
    assert sweeps[6:] == [1] and lone[0] is lone[1]
    assert dominance_partition(lone[0].complement) is core._record(A).family[part.n2][1]
    # An alpha with no family, here mixing n1 and n2, is kept in place of the family,
    # so the next member sweeps the family again.
    mixed = sorted([part.n1[0], part.n2[0]])
    for alpha in (singles[0], mixed, singles[1]):
        schur_complement(A, alpha)
    assert sweeps[7:] == [len(singles), 1, len(singles)]
    # A record's first complement counts as its first sweep even when alpha has no
    # family, so the first family member asked next sweeps the whole family.
    clear_memo()
    for alpha in (mixed, singles[0]):
        schur_complement(A, alpha)
    assert sweeps[10:] == [1, len(singles)]


def test_sweeps_are_built_outside_the_memo_lock(monkeypatch):
    # Another thread's lookups, of any matrix, never wait for a sweep's elimination.
    held = []
    sweep = schur._sweep

    def watched(A, alphas, part):
        held.append(core._LOCK.locked())
        return sweep(A, alphas, part)

    monkeypatch.setattr(schur, "_sweep", watched)
    A = np.array(generate_sdd1(10, 4, n1_fraction=0.5))
    n2 = dominance_partition(A).n2
    clear_memo()
    for alpha in (n2, n2[:1], n2[1:2]):  # alone, the family of singles, then a lookup
        schur_complement(A, alpha)
    assert held == [False, False]


def test_a_sweep_kept_while_another_is_built_is_used(monkeypatch):
    # Another call keeps alpha's family while this call builds it outside the lock,
    # as a second thread would; this call then answers from the sweep kept first.
    A = generate_sdd1(12, 5, n1_fraction=0.5)
    family = list(itertools.combinations(dominance_partition(A).n2, 3))
    clear_memo()
    schur_complement(A, family[-1])  # the record's first complement, alone
    inner = []
    sweep = schur._sweep

    def raced(A, alphas, part):
        if not inner:
            inner.append(None)
            inner[0] = schur_complement(A, family[1])
        return sweep(A, alphas, part)

    monkeypatch.setattr(schur, "_sweep", raced)
    rec = core._record(A)  # the two complements recorded next evict it from the memo
    first = schur_complement(A, family[0])
    assert rec.family[family[0]][0] is first and rec.family[family[1]][0] is inner[0]


def test_no_schur_result_is_built_under_the_memo_lock(monkeypatch):
    # A sweep's frozen complements and their partitions are built before the lock is
    # taken to keep it, for a lone alpha = n2 and for a family alike; so are A's own
    # partition and factorization, and a result's delta.
    A = generate_sdd1(10, 4, n1_fraction=0.5)
    clear_memo()
    held = []
    for module, name in [(schur, "_build_partitions"), (schur, "_build_partition"),
                         (schur, "_frozen"), *FIRST_BUILDS.values()]:
        real, label = getattr(module, name), f"{module.__name__.split('.')[1]}.{name}"
        monkeypatch.setattr(module, name, lambda *args, real=real, label=label:
                            held.append((label, core._LOCK.locked())) or real(*args))
    n2 = dominance_partition(A).n2  # A's own partition, built by its record
    for alpha in (n2, n2[:1], n2[1:2]):  # alone, the family of singles, then a lookup
        res = schur_complement(A, alpha)
    lu_factor(A)
    assert res.delta is not None
    built = (["core._build_partition", "schur._build_partition", "schur._frozen",
              "schur._build_partitions"] + ["schur._frozen"] * len(n2)
             + ["oracle._factorize", "schur._coupling_radii"])
    assert held == [(label, False) for label in built]


# The build of each result kept in the memo, by the call whose first request builds it.
FIRST_BUILDS = {
    "dominance_partition": (core, "_build_partition"),
    "lu_factor": (oracle, "_factorize"),
    "delta": (schur, "_coupling_radii"),
}


def first_requests(A, alpha):
    """The three calls of FIRST_BUILDS on A, with delta read from one shared result of
    alpha made now, and A's record then dropped so that each call builds its result."""
    shared = schur_complement(A, alpha)
    clear_memo()
    return {"dominance_partition": lambda: dominance_partition(A),
            "lu_factor": lambda: lu_factor(A),
            "delta": lambda: shared.delta}


@pytest.mark.parametrize("call", sorted(FIRST_BUILDS))
def test_no_lookup_waits_for_another_threads_build(monkeypatch, call):
    # One thread is parked inside the first build of a result of A; another thread's
    # dominance_partition of another matrix must finish meanwhile.
    A, B = generate_sdd1(9, 2, n1_fraction=0.5), generate_sdd1(8, 3, n1_fraction=0.5)
    clear_memo()
    run = first_requests(A, dominance_partition(A).n2[:2])[call]
    module, name = FIRST_BUILDS[call]
    real, parked, release, done = getattr(module, name), *(threading.Event() for _ in range(3))

    def gated(*args):
        if not parked.is_set():  # only the first build waits
            parked.set()
            release.wait(30)
        return real(*args)

    monkeypatch.setattr(module, name, gated)
    builder = threading.Thread(target=run)
    looker = threading.Thread(target=lambda: (dominance_partition(B), done.set()))
    try:
        builder.start()
        assert parked.wait(30)
        looker.start()
        assert done.wait(2)
    finally:
        release.set()  # a failing run must not leave a thread parked
        for thread in (builder, looker):
            if thread.ident is not None:
                thread.join(30)
    assert not builder.is_alive() and not looker.is_alive()


def test_threads_racing_for_a_first_result_all_get_the_one_kept(monkeypatch):
    # A barrier inside each build holds every thread there until all have missed, so each
    # thread builds each result once; every install after the first returns the first.
    A = generate_sdd1(10, 6, n1_fraction=0.5)
    alpha = dominance_partition(A).n2[:2]
    clear_memo()
    serial = {call: fingerprint(run()) for call, run in first_requests(A, alpha).items()}
    calls, count = first_requests(A, alpha), 4
    barrier, builds = threading.Barrier(count, timeout=10), []
    for module, name in FIRST_BUILDS.values():
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            (builds.append(name), barrier.wait(), real(*args))[-1])
    got = [None] * count

    def run(k):
        got[k] = {call: calls[call]() for call in FIRST_BUILDS}

    in_threads(run, count)
    assert sorted(builds) == sorted([name for _, name in FIRST_BUILDS.values()] * count)
    assert all(out[call] is got[0][call] for out in got for call in FIRST_BUILDS)
    assert {call: fingerprint(got[0][call]) for call in FIRST_BUILDS} == serial


def test_a_family_member_raises_a_fresh_error_each_time():
    # The matrix of test_vectorized's test_family_members_raise_their_own_errors: n2 = {0},
    # {0, 1} meets a zero pivot in column 1 and {0, 4} is regular.
    A = np.array([[4.0, 1.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1e300, 0.0],
                  [0.0, 0.0, 1e300, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0, 1.0]])
    family = [(0, e) for e in range(1, 5)]
    clear_memo()
    schur_complement(A, family[3])  # the record's first complement, alone
    raised = []
    for _ in range(2):  # the family is swept, then the member looked up
        with pytest.raises(SingularBlockError) as info:
            schur_complement(A, family[0])
        raised.append(info.value)
    first, second = raised
    assert first is not second
    assert str(first) == str(second) and first.column == second.column == 1
    depth = [len(traceback.extract_tb(exc.__traceback__)) for exc in raised]
    assert depth[1] <= depth[0]
    res = schur_complement(A, family[3])
    assert core._record(A).family[family[3]][0] is res


def test_lone_complements_build_no_result(monkeypatch):
    # The checks compute their complements alone: no frozen copy, no result, and no
    # partition but the one tilde_set_identity_check asks dominance_partition for.
    A = generate_sdd1(8, 3, n1_fraction=0.5)
    clear_memo()
    alpha = dominance_partition(A).n2[:1]  # A's own partition, built by its record
    built = []
    for module, name in ((schur, "_build_partitions"), (schur, "_build_partition"),
                         (schur, "_frozen"), (schur, "SchurResult"), (core, "_build_partition")):
        real = getattr(module, name)
        label = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, lambda *a, real=real, label=label, **k:
                            built.append(label) or real(*a, **k))
    assert quotient_formula_check(A, list(range(7)), [0])
    assert built == []
    assert tilde_set_identity_check(A, alpha)
    assert built == ["diagdom.core._build_partition"]


def test_a_complement_recorded_before_its_sweep_is_found_by_its_bytes(monkeypatch):
    # tilde_set_identity_check records A/alpha, computed alone; the sweep's read-only
    # copy of it then finds that record, so A's record and its sweep stay in the memo.
    A = np.array(generate_sdd1(8, 3, n1_fraction=0.5))
    alpha = dominance_partition(A).n2[:1]
    created = []

    class Counted(core._Record):
        def __init__(self, matrix, raw):
            created.append(matrix.shape)
            super().__init__(matrix, raw)

    monkeypatch.setattr(core, "_Record", Counted)
    clear_memo()
    assert tilde_set_identity_check(A, alpha)
    res = schur_complement(A, alpha)
    assert created == [(8, 8), (7, 7)] and within_bounds()
    assert core._MEMO[0].family[alpha][0] is res
    assert core._MEMO[1].raw == res.complement.tobytes()


def test_order_300_audit_partitions_and_eliminates_a_once(eliminations, monkeypatch):
    partitioned = []
    build = core._build_partition
    monkeypatch.setattr(core, "_build_partition", lambda M: partitioned.append(M.tobytes()) or build(M))
    A = np.array(generate_sdd1(300, 1, n1_fraction=0.5))
    A = np.ldexp(A, -8)  # an exact scaling to unit-sized pivots, so the determinant stays finite
    n2 = list(dominance_partition(A).n2)
    classify(A)
    is_h_matrix(A)
    inverse(A)
    sdd1_schur_bound(A)
    sdd1_epsilon_bound(A)
    s_sdd1_schur_bound(A, n2)
    ordered = dominance_ordering(A).apply(A)
    huang_bracket(ordered)
    dominance_bracket(ordered)
    determinant(A)
    lu_factor(A)
    dominance_partition(schur_complement(A, n2).complement)
    assert partitioned.count(A.tobytes()) == 1
    assert eliminations.count(300) == 1


@pytest.mark.parametrize("command", ["det-bound", "verify"])
def test_det_sections_record_and_partition_a_once(monkeypatch, tmp_path, capsys, command):
    # The brackets read A's own partition in any row order, so no ordered copy is made.
    A = generate_sdd1(8, 3, n1_fraction=0.5)
    assert dominance_partition(A).n1 == (0, 3, 6, 7)  # not in dominance order
    path = tmp_path / "a.mtx"
    path.write_text(format_matrix_market(A))
    created, partitioned = [], []

    class Counted(core._Record):
        def __init__(self, matrix, raw):
            created.append(matrix.tobytes())
            super().__init__(matrix, raw)

    build = core._build_partition
    monkeypatch.setattr(core, "_Record", Counted)
    monkeypatch.setattr(core, "_build_partition", lambda M: partitioned.append(M.tobytes()) or build(M))
    clear_memo()
    assert cli.main([command, "--input", str(path)]) == 0
    capsys.readouterr()
    assert created == partitioned == [A.tobytes()]


def test_factorizations_stay_within_the_record_count(eliminations):
    for n in (1, 2, 17, 33, 64, 128):
        for seed in range(3):
            A = pivoting(n, seed)
            determinant(A)
            fact = lu_factor(A)
            assert within_bounds()
            assert lu_factor(A) is fact
    assert eliminations == [n for n in (1, 2, 17, 33, 64, 128) for _ in range(3)]


def test_threads_factoring_different_matrices_match_a_serial_run():
    # Each thread's matrices evict the others' records as often as the switch interval allows.
    work = [[pivoting(n, 10 * k + n) for n in (5, 17, 40)] for k in range(4)]

    def factor_all(mats):
        return [(fingerprint(lu_factor(A)), fingerprint(determinant(A))) for A in mats]

    clear_memo()
    serial = [factor_all(mats) for mats in work]
    results = [None] * len(work)

    def run(k):
        results[k] = [factor_all(work[k]) for _ in range(20)]

    in_threads(run, len(work))
    assert results == [[s] * 20 for s in serial]
    assert within_bounds()
