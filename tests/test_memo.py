"""The analysis memo behind ``as_matrix`` and the partition, and the lazy Schur ``delta``.

The memo may only remove work: every public call must give the same bits
with a warm memo as after clearing it, whatever the caller does to its own
arrays between calls.
"""

import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from diagdom import (
    ToolkitError,
    ValidationError,
    as_matrix,
    b1_split,
    classify,
    corner_norms,
    determinant,
    dominance_bracket,
    dominance_ordering,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    huang_bracket,
    inverse,
    is_h_matrix,
    is_p_matrix,
    lcp_b1_bound,
    quotient_formula_check,
    run_experiment,
    s_sdd1_schur_bound,
    schur_complement,
    sdd1_epsilon_bound,
    sdd1_schur_bound,
    tilde_set_identity_check,
)
from diagdom import core
from diagdom.core import MEMO_ENTRIES, MEMO_MAX_ORDER
from test_vectorized import draw, same, schur_instance


def clear_memo():
    core._analysis.cache_clear()


def memo_size():
    return core._analysis.cache_info().currsize


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


def test_memo_stays_within_its_cap_and_order_bound():
    clear_memo()
    sizes = []
    for n in [2, 3, MEMO_MAX_ORDER, *range(4, 4 + 2 * MEMO_ENTRIES)]:
        A = np.eye(n) * 2.0 + 1.0 / n  # strictly dominant: a complement of each order below
        dominance_partition(A)
        schur_complement(A, [n - 1])
        sizes.append(memo_size())
    assert max(sizes) == MEMO_ENTRIES
    clear_memo()
    as_matrix(np.eye(MEMO_MAX_ORDER))
    assert memo_size() == 1
    kept = core._analysis.cache_info()
    big = [np.eye(n) * 2.0 + 1.0 / n for n in (MEMO_MAX_ORDER + 1, 512)]
    for A in big:
        as_matrix(A)
        dominance_partition(A)
    schur_complement(big[-1], [0])  # its complement, of order 511, is above the bound too
    assert core._analysis.cache_info() == kept  # neither looked up, added nor evicted


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

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(work))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[[s] * 3 for s in mats] for mats in serial]
    assert all(d is deltas[0] for d in deltas) and deltas[0] is not None
    assert memo_size() <= MEMO_ENTRIES
