import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from spindyn import permanent
from spindyn.core import BitString, CouplingMatrix, Rng, hamming_class_members, sample_coupling
from spindyn.permanent import (
    class_submatrices,
    gaussian_permanent_variance_check,
    permanent_bruteforce,
    permanent_ryser,
    permanents,
    submatrix_for_outcome,
)


def test_identity_permanent():
    assert permanent_ryser(np.eye(3)) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_all_ones_is_factorial(m):
    assert permanent_ryser(np.ones((m, m))) == pytest.approx(math.factorial(m))


def test_bruteforce_tiny_cases():
    assert permanent_bruteforce(np.array([[3.5]])) == pytest.approx(3.5)
    a, b, c, d = 1.2, -0.7, 2.0, 0.25
    assert permanent_bruteforce(np.array([[a, b], [c, d]])) == pytest.approx(a * d + b * c)


def test_ryser_matches_bruteforce_6x6():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    assert permanent_ryser(a) == pytest.approx(permanent_bruteforce(a), rel=1e-10)


@pytest.mark.parametrize("m", range(2, 9))
def test_ryser_vs_bruteforce_random(m):
    rng = np.random.default_rng(m)
    for _ in range(100 if m <= 5 else 10):
        a = rng.standard_normal((m, m))
        truth = permanent_bruteforce(a)
        assert permanent_ryser(a) == pytest.approx(truth, rel=1e-10, abs=1e-12)


def test_batch_ryser_matches_scalar():
    rng = np.random.default_rng(7)
    # Every m up to the split edge and one past it, where the columns past
    # the inner block are walked; at m = 8 and 12, and wherever five
    # matrices do, the stack spans several chunks.
    for m in range(1, permanent._INNER_COLUMNS + 3):
        per_chunk = permanent._layout(m, 10**9)[3]
        count = 2 * per_chunk + 3 if m in (8, 12) else 5
        stack = rng.standard_normal((count, m, m))
        batch = permanents(stack)
        for i in range(count):
            assert batch[i] == permanent_ryser(stack[i])


# sha256 of `permanents` on default_rng(500 + m).standard_normal((300, m, m)):
# up to m = 5 every free column is in the low table, and the bits are those
# of the single-table kernel the meet-in-the-middle one replaced.
_SMALL_M_DIGESTS = {
    1: "fa14709310e9e54f07c37cdea1af2ffaaaef58544b0a14a10f0e613ff3d16435",
    2: "a47e52af8cd36ded09e8c74e87d0aca666da5e97379db8891bfb765dffcf48d1",
    3: "ab69deb605188047a486188b34bb16c90d86d0944979649bdbb89b56e4e76709",
    4: "4f8a9c7858f1f3bd3ccfb9bf5087a0a0317747e298b12b7e8dd3e3346bd6be2f",
    5: "dad680573acbd22b5a5149ee0df2e90a5eb2e12ae872bfb1b08abf1b64493013",
}


@pytest.mark.parametrize("m", sorted(_SMALL_M_DIGESTS))
def test_small_m_permanents_keep_their_bits(m):
    stack = np.random.default_rng(500 + m).standard_normal((300, m, m))
    digest = hashlib.sha256(permanents(stack).tobytes()).hexdigest()
    assert digest == _SMALL_M_DIGESTS[m]


def test_stack_scratch_is_sized_by_the_budget():
    tracemalloc.start()
    try:
        a = np.random.default_rng(8).standard_normal((16000, 8, 8))
        permanents(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes + 4 * 2**20


def test_permutation_invariance_exhaustive():
    import itertools

    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        a = rng.standard_normal((m, m))
        base = permanent_ryser(a)
        for p in itertools.permutations(range(m)):
            assert permanent_ryser(a[list(p), :]) == pytest.approx(base, rel=1e-10)
            assert permanent_ryser(a[:, list(p)]) == pytest.approx(base, rel=1e-10)


def test_size_guards():
    with pytest.raises(ValueError):
        permanent_ryser(np.ones((31, 31)))
    with pytest.raises(ValueError):
        permanent_bruteforce(np.ones((10, 10)))


def test_submatrix_full_matrix_for_x0():
    J = CouplingMatrix(np.arange(9.0).reshape(3, 3))
    sub = submatrix_for_outcome(J, BitString.x0(3))
    assert np.array_equal(sub, J.entries)


def test_submatrix_single_entry():
    # sigma (1,0): site 1 excited; tau (0,1): site 1 flipped to 0.
    J = CouplingMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    sub = submatrix_for_outcome(J, BitString((1, 0) + (0, 1)))
    assert sub.shape == (1, 1)
    assert sub[0, 0] == 1.0
    # sigma site 1, tau site 2 flipped gives the off-diagonal entry
    sub = submatrix_for_outcome(J, BitString((1, 0) + (1, 0)))
    assert sub[0, 0] == 2.0


def test_submatrix_rejects_outside_class():
    J = CouplingMatrix(np.eye(2))
    with pytest.raises(ValueError):
        submatrix_for_outcome(J, BitString((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        submatrix_for_outcome(J, BitString.y0(2))  # m = 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_submatrices_stack_each_outcome_block(n):
    J = sample_coupling(n, Rng(31, n))
    for m in range(1, n + 1):
        stack = class_submatrices(J, m)
        members = hamming_class_members(n, m)
        assert stack.shape == (len(members), m, m)
        for block, x in zip(stack, members):
            assert block.tobytes() == submatrix_for_outcome(J, x).tobytes()
    assert class_submatrices(J, 0).shape == (1, 0, 0)  # X_0 = {y0}, Per = 1
    for m in (-1, n + 1):
        with pytest.raises(ValueError):
            class_submatrices(J, m)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_gaussian_variance_near_one(m):
    est = gaussian_permanent_variance_check(m, 10**5, Rng(11, m))
    # standard error of the mean of Per^2/m! from the same draws
    draws = Rng(11, m).generator().standard_normal((10**5, m, m))
    vals = permanents(draws) ** 2 / math.factorial(m)
    se = float(np.std(vals) / math.sqrt(vals.size))
    assert abs(est - 1.0) <= 5 * se


@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_gaussian_variance_past_m_8_tends_to_one(m):
    est = gaussian_permanent_variance_check(m, 10**3, Rng(12, m))
    draws = Rng(12, m).generator().standard_normal((10**3, m, m))
    vals = permanents(draws) ** 2 / math.factorial(m)
    se = float(np.std(vals) / math.sqrt(vals.size))
    assert abs(est - 1.0) <= 5 * se


@pytest.mark.parametrize("m, trials", [(14, 10**3), (20, 10**3), (8, 10**9), (1, 10**12)])
def test_gaussian_variance_cost_guard_refuses_before_allocating(m, trials):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cost guard"):
            gaussian_permanent_variance_check(m, trials, Rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_chebyshev_envelope():
    m = 4
    draws = Rng(5).generator().standard_normal((10**4, m, m))
    pers = permanents(draws)
    frac = float(np.mean(np.abs(pers) < 10 * math.sqrt(math.factorial(m))))
    assert frac >= 0.99


def _glynn_mpmath(a: np.ndarray):
    """Glynn's formula at 50 digits, sign patterns walked in Gray-code order."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = len(a)
        cols = [[mpmath.mpf(float(x)) for x in a[:, j]] for j in range(m)]
        sums = [mpmath.fsum(row) for row in zip(*cols)]
        total = mpmath.fprod(sums)
        for g in range(1, 1 << (m - 1)):
            gray = g ^ (g >> 1)
            k = (g & -g).bit_length()  # column k flips: bit k - 1 of gray
            step = -2 if (gray >> (k - 1)) & 1 else 2
            sums = [s + step * c for s, c in zip(sums, cols[k])]
            term = mpmath.fprod(sums)
            total += -term if gray.bit_count() & 1 else term
        return total / 2 ** (m - 1)


@pytest.mark.parametrize("m", [10, 12])
def test_glynn_matches_50_digit_oracle(m):
    a = np.random.default_rng(100 + m).standard_normal((m, m))
    truth = _glynn_mpmath(a)
    assert float(abs((permanent_ryser(a) - truth) / truth)) <= 1e-13


@pytest.mark.parametrize("m", [5, 6, 9, 13])
def test_table_split_edges_match_50_digit_oracle(m):
    # m = 5 is the last size whose free columns all sit in the low table,
    # m = 6 gives the high table its first column, m = 9 its fourth, and at
    # m = 13 the low table takes 12 columns and the high table none.
    a = np.random.default_rng(200 + m).standard_normal((m, m))
    truth = _glynn_mpmath(a)
    assert float(abs((permanent_ryser(a) - truth) / truth)) <= 1e-13


# The inner-block edges join 16, 18 and 20: the largest m with no outer
# column and the next one, which walks one.  A 50-digit oracle there takes
# several seconds, so these identities stand in for it.
@pytest.mark.parametrize(
    "m", sorted({16, 18, 20, permanent._INNER_COLUMNS + 1, permanent._INNER_COLUMNS + 2})
)
def test_structured_identities_at_large_m(m):
    rng = np.random.default_rng(m)
    u, v = rng.uniform(0.5, 1.5, (2, m))
    rank_one = math.factorial(m) * np.prod(u) * np.prod(v)
    assert permanent_ryser(np.outer(u, v)) == pytest.approx(rank_one, rel=1e-12)
    ones = permanent_ryser(np.ones((m, m)))
    assert ones == pytest.approx(math.factorial(m), rel=1e-12)
    a = rng.standard_normal((m // 2, m // 2))
    b = rng.standard_normal((m - m // 2, m - m // 2))
    block = scipy.linalg.block_diag(a, b)
    assert permanent_ryser(block) == pytest.approx(
        permanent_ryser(a) * permanent_ryser(b), rel=1e-12
    )


def test_results_do_not_depend_on_blas_threads():
    script = (
        "import numpy as np\n"
        "from spindyn.permanent import permanent_ryser, permanents\n"
        "rng = np.random.default_rng(17)\n"
        "print(repr(permanent_ryser(rng.standard_normal((17, 17)))))\n"
        "print(repr(permanents(rng.standard_normal((1000, 8, 8))).tolist()))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 2


def test_input_guards_name_themselves():
    with pytest.raises(ValueError, match="shape guard"):
        permanent_ryser(np.ones((2, 3)))
    with pytest.raises(ValueError, match="shape guard"):
        permanent_ryser(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="shape guard"):
        permanents(np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape guard"):
        permanents(np.ones((4, 2, 3)))
    bad = np.eye(3)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite guard"):
        permanent_ryser(bad)
    bad[1, 2] = -np.inf
    with pytest.raises(ValueError, match="finite guard"):
        permanents(np.stack([np.eye(3), bad]))
    with pytest.raises(ValueError, match="cost guard"):
        permanents(np.ones((1, 31, 31)))


def test_empty_matrix_has_permanent_one():
    assert permanent_ryser(np.ones((0, 0))) == 1.0
    assert permanents(np.ones((3, 0, 0))).tolist() == [1.0, 1.0, 1.0]
    assert permanents(np.ones((0, 4, 4))).shape == (0,)


def test_single_large_call_memory_is_bounded():
    a = np.random.default_rng(20).standard_normal((20, 20))
    tracemalloc.start()
    try:
        permanent_ryser(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
