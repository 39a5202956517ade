"""Domain types and deterministic randomness shared by every other module.

Conventions fixed here and relied on everywhere else:

* A configuration of the 2n spins is a bit tuple (x_1, ..., x_2n).  Spins
  1..n form the sigma group, spins n+1..2n the tau group.
* The integer index of a configuration uses bit i-1 for spin i, so the
  sigma spins occupy the low n bits of the index.
* The weight-n sector basis lists its states in lexicographic order of the
  bit tuple (x_1 compared first).
* The outcome class X_m (m sigma-ones, n - m tau-ones) is read by every
  module as the cached index array `hamming_class_states`.

A `Basis` is a set of rows closed under the sigma_i-tau_j double flips:
the full basis, the sector, or one weight or Z-parity block.  It carries
which row each flip reaches, is built once per (n, symmetry, label) by
the cached `Basis.of`, and is the one row-set type every other module
takes: the Hamiltonian is laid out from it and the Trotter gates read
their partners from it.

`one_blas_thread` runs a block of code with numpy's bundled OpenBLAS on
one thread, whatever `OPENBLAS_NUM_THREADS` says: LAPACK's eigh and SVD
and a plain GEMM round differently on 1 and 2 threads, so every call
whose result reaches output bytes runs inside it.  It is the one module
that talks to OpenBLAS directly.
"""

from __future__ import annotations

import ctypes
import math
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "BlasPin",
    "one_blas_thread",
    "Kind",
    "BitString",
    "CouplingMatrix",
    "HamiltonianSpec",
    "Basis",
    "StateVector",
    "Polynomial",
    "SampleSet",
    "Rng",
    "sample_coupling",
    "hamming_class",
    "hamming_class_states",
    "hamming_class_bits",
    "hamming_class_members",
    "model_class",
]


# numpy's wheels bundle OpenBLAS as numpy.libs/libscipy_openblas64_-<hash>.so,
# its exported names suffixed for the 64-bit integer build
_OPENBLAS_LIBRARY = "libscipy_openblas64_*.so"
_OPENBLAS_SET = "scipy_openblas_set_num_threads64_"
_OPENBLAS_GET = "scipy_openblas_get_num_threads64_"


@dataclass(frozen=True)
class BlasPin:
    """What `one_blas_thread` did: `pinned` says whether numpy's OpenBLAS
    runs on one thread, `detail` names the library or what was missing."""

    pinned: bool
    detail: str


@lru_cache(maxsize=None)
def _openblas_threads() -> tuple[Callable[[int], None], Callable[[], int], str]:
    """The set and get thread-count calls of numpy's bundled OpenBLAS, and
    the library's file name; raises OSError naming what it cannot find.

    Opening the library numpy already loaded returns numpy's own handle.
    Found once per process (a failure is not cached).
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob(_OPENBLAS_LIBRARY))
    if not found:
        raise OSError(f"no {_OPENBLAS_LIBRARY} in {libs}")
    lib = ctypes.CDLL(str(found[0]))
    try:
        set_threads, get_threads = lib[_OPENBLAS_SET], lib[_OPENBLAS_GET]
    except AttributeError as exc:
        raise OSError(f"{found[0].name} lacks {_OPENBLAS_SET} or {_OPENBLAS_GET}") from exc
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads, found[0].name


class _Pin:
    """The state `one_blas_thread` shares between nested and concurrent
    entries: how many are open, the caller's thread count to restore on
    the outermost exit, and what the outermost entry found."""

    lock = threading.Lock()
    depth = 0
    restore: Callable[[], None] | None = None
    state: BlasPin


@contextmanager
def one_blas_thread() -> Iterator[BlasPin]:
    """Run the block with numpy's OpenBLAS on one thread; yields a `BlasPin`.

    Entries nest, from one thread or several: the outermost entry reads
    the caller's thread count and sets 1, the outermost exit restores the
    count it read.  Where the library or its thread calls cannot be
    found, the block runs as the caller left OpenBLAS, and the entry
    says so: the pin reads "not pinned: ..." and a RuntimeWarning names
    what is missing.
    """
    with _Pin.lock:
        if _Pin.depth == 0:
            try:
                set_threads, get_threads, name = _openblas_threads()
            except OSError as exc:
                _Pin.state = BlasPin(False, f"not pinned: {exc}")
                warnings.warn(f"BLAS threads {_Pin.state.detail}", RuntimeWarning, 3)
            else:
                caller = get_threads()
                set_threads(1)
                _Pin.restore = lambda: set_threads(caller)
                _Pin.state = BlasPin(True, f"1 thread in {name}")
        _Pin.depth += 1
        state = _Pin.state
    try:
        yield state
    finally:
        with _Pin.lock:
            _Pin.depth -= 1
            if _Pin.depth == 0 and _Pin.restore is not None:
                _Pin.restore()
                _Pin.restore = None


class Kind(str, Enum):
    """The four bipartite model kinds."""

    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"


def model_class(kind: Kind | str) -> str:
    """Return "I" for the Ising-like kinds (H1, H2), "II" for the U(1) kinds."""
    kind = Kind(kind)
    return "I" if kind in (Kind.H1, Kind.H2) else "II"


@dataclass(frozen=True)
class BitString:
    """A 2n-bit outcome with sigma/tau halves.

    bits[k] is spin k+1; the sigma half is bits[:n], the tau half bits[n:].
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0 or len(self.bits) % 2 != 0:
            raise ValueError("BitString length must be a positive even number")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.bits) // 2

    def sigma_half(self) -> tuple[int, ...]:
        return self.bits[: self.n]

    def tau_half(self) -> tuple[int, ...]:
        return self.bits[self.n :]

    def weight(self) -> int:
        return sum(self.bits)

    def index(self) -> int:
        """Integer index of this configuration (spin i -> bit i-1)."""
        idx = 0
        for k, b in enumerate(self.bits):
            idx |= b << k
        return idx

    @classmethod
    def from_index(cls, index: int, n: int) -> "BitString":
        return cls(tuple((index >> k) & 1 for k in range(2 * n)))

    @classmethod
    def y0(cls, n: int) -> "BitString":
        """The initial configuration: sigma all 0, tau all 1."""
        return cls((0,) * n + (1,) * n)

    @classmethod
    def x0(cls, n: int) -> "BitString":
        """The fully flipped configuration: sigma all 1, tau all 0."""
        return cls((1,) * n + (0,) * n)

    @classmethod
    def class_representative(cls, n: int, m: int) -> "BitString":
        """A member of X_m, 1 <= m <= n: sigma sites 1..m up, tau sites 1..m down."""
        if not 1 <= m <= n:
            raise ValueError(f"Hamming class m = {m} must lie in 1..n = {n}")
        return cls((1,) * m + (0,) * (n - m) + (0,) * m + (1,) * (n - m))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def hamming_class(x: BitString) -> int | None:
    """Return m if x has m sigma-ones and n-m tau-ones, else None."""
    n = x.n
    m = sum(x.sigma_half())
    if sum(x.tau_half()) == n - m:
        return m
    return None


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CouplingMatrix:
    """An n x n real matrix of dimensionless coupling strengths."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("coupling matrix must be square and non-empty")
        if not np.all(np.isfinite(a)):
            raise ValueError("coupling matrix entries must be finite")
        object.__setattr__(self, "entries", _freeze(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Model kind, size and couplings, plus optional z-direction local fields."""

    kind: Kind
    couplings: CouplingMatrix
    z_fields: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", Kind(self.kind))
        if self.z_fields is not None:
            h1 = _freeze(np.array(self.z_fields[0], dtype=float))
            h2 = _freeze(np.array(self.z_fields[1], dtype=float))
            if h1.shape != (self.n,) or h2.shape != (self.n,):
                raise ValueError("z_fields must be a pair of length-n vectors")
            object.__setattr__(self, "z_fields", (h1, h2))

    @property
    def n(self) -> int:
        return self.couplings.n


# Cap on any one J-independent build or dense working set; the n = 8
# sector's dense eigh (d = 12870, ~4 GB) and the full basis's flip index
# at n = 10 (~2 GB) lie above it.
_MAX_BYTES = 1 << 30


class DenseMemoryError(RuntimeError):
    """Raised before an allocation whose size exceeds the memory cap."""


def _check_bytes(nbytes: int, what: str) -> None:
    if nbytes > _MAX_BYTES:
        raise DenseMemoryError(
            f"{what} needs ~{nbytes / 2**30:.1f} GiB, above the "
            f"{_MAX_BYTES / 2**30:.1f} GiB cap"
        )


@lru_cache(maxsize=64)
def _block_states(n: int, symmetry: str, label: int) -> np.ndarray:
    """Integer indices of a set of rows closed under the double flips;
    read-only and cached, so `Basis.of` and every X_m share one sort.

    "full" is every state in index order, "parity" the states of weight
    parity `label` in index order, "weight" the states of Hamming weight
    `label` in lexicographic order of the bit tuple (x_1 compared first);
    weight n is the sector.
    """
    full = np.arange(1 << (2 * n), dtype=np.int64)
    if symmetry == "full":
        return _freeze(full)
    weight = sum((full >> b) & 1 for b in range(2 * n))
    if symmetry == "parity":
        return _freeze(full[weight % 2 == label])
    members = full[weight == label]
    # x_1 (bit 0) is the most significant key
    keys = sum(((members >> b) & 1) << (2 * n - 1 - b) for b in range(2 * n))
    return _freeze(members[np.argsort(keys)])


@lru_cache(maxsize=64)
def hamming_class_states(n: int, m: int, /) -> np.ndarray:
    """Full-basis indices of X_m (the sector rows with m sigma-ones) in
    descending lexicographic order of the bit tuple; read-only, cached."""
    if n < 1 or not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..n for a positive n, got n = {n}, m = {m}")
    sector = _block_states(n, "weight", n)
    sigma_ones = sum((sector >> b) & 1 for b in range(n))
    return _freeze(sector[sigma_ones == m][::-1].copy())


@lru_cache(maxsize=64)
def hamming_class_bits(n: int, m: int, /) -> np.ndarray:
    """The bits of X_m as read-only uint8 rows, one per member in
    `hamming_class_states` order (column k is spin k+1); cached."""
    states = hamming_class_states(n, m)
    return _freeze(((states[:, None] >> np.arange(2 * n)) & 1).astype(np.uint8))


def hamming_class_members(n: int, m: int) -> list[BitString]:
    """The members of X_m as `BitString`s, in `hamming_class_states` order."""
    return [BitString(tuple(row)) for row in hamming_class_bits(n, m).tolist()]


@dataclass(frozen=True, eq=False, repr=False)
class Basis:
    """A set of rows closed under the sigma_i-tau_j double flips, with
    which row each flip reaches.

    Build one with `Basis.of(n, symmetry, label)` (or `full`, `sector`):
    it is cached per (n, symmetry, label), so two bases compare equal
    exactly when they are the same object, and every array is read-only.
    """

    n: int
    symmetry: str  # "full" | "parity" | "weight"
    label: int  # the parity or the weight; 0 for "full"
    states: np.ndarray  # (d,) full-basis index of each row
    pos: np.ndarray  # (4^n,) row of each full-basis index, -1 outside the rows
    # (n, n, d) row reached by flipping sigma_i and tau_j; a partner outside
    # the rows (an equal-bit pair leaving a weight block) is the row itself
    partner: np.ndarray
    differ: np.ndarray  # (n, n, d) whether bits i and n+j of the row differ
    signs: np.ndarray  # (d, 2n) sigma_z eigenvalue of each spin

    @staticmethod
    @lru_cache(maxsize=64)
    def of(n: int, symmetry: str, label: int, /) -> "Basis":
        """The cached basis of one row set (see `_block_states`)."""
        if n < 1:
            raise ValueError("n must be positive")
        top = {"full": 0, "parity": 1, "weight": 2 * n}
        if symmetry not in top or not 0 <= label <= top[symmetry]:
            raise ValueError(f"no {symmetry!r} block {label} at n = {n}")
        dim = {
            "full": 1 << (2 * n),
            "parity": 1 << (2 * n - 1),
            "weight": math.comb(2 * n, label),
        }[symmetry]
        # per row: partner (int64, plus its xor source) and differ for each
        # site, the bits and signs of its 2n spins; plus pos over 4^n states
        nbytes = dim * (17 * n * n + 32 * n) + (8 << (2 * n))
        _check_bytes(nbytes, f"flip index of {dim} rows")
        states = _block_states(n, symmetry, label)
        rows = np.arange(dim)
        pos = np.full(1 << (2 * n), -1, dtype=np.intp)
        pos[states] = rows
        sites = np.arange(n)
        masks = (1 << sites)[:, None] | (1 << (n + sites))[None, :]
        partner = pos[states ^ masks[:, :, None]]
        np.copyto(partner, rows, where=partner < 0)
        bits = (states[:, None] >> np.arange(2 * n)) & 1
        differ = bits.T[:n, None, :] != bits.T[None, n:, :]
        signs = 1.0 - 2.0 * bits
        arrays = (states, pos, partner, differ, signs)
        return Basis(n, symmetry, label, *(_freeze(a) for a in arrays))

    @classmethod
    def full(cls, n: int) -> "Basis":
        """Every 2^{2n} configuration, in index order."""
        return cls.of(n, "full", 0)

    @classmethod
    def sector(cls, n: int) -> "Basis":
        """The weight-n sector, in lexicographic order of the bit tuple."""
        return cls.of(n, "weight", n)

    @property
    def dimension(self) -> int:
        return self.states.size

    def index_of(self, x: BitString) -> int | None:
        """Position of x in this basis, or None if x lies outside it."""
        if x.n != self.n:
            raise ValueError("bitstring size does not match basis")
        pos = int(self.pos[x.index()])
        return pos if pos >= 0 else None

    def __repr__(self) -> str:
        return f"Basis.of({self.n}, {self.symmetry!r}, {self.label})"


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a Basis."""

    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        a = np.array(self.amplitudes, dtype=complex)
        if a.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector has length {a.shape}, "
                f"basis dimension is {self.basis.dimension}"
            )
        object.__setattr__(self, "amplitudes", _freeze(a))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, x: BitString) -> float:
        """|amplitude|^2 of configuration x (zero if outside the basis)."""
        pos = self.basis.index_of(x)
        if pos is None:
            return 0.0
        return float(abs(self.amplitudes[pos]) ** 2)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @classmethod
    def basis_state(cls, x: BitString, basis: Basis) -> "StateVector":
        pos = basis.index_of(x)
        if pos is None:
            raise ValueError(f"configuration {x} lies outside {basis!r}")
        amp = np.zeros(basis.dimension, dtype=complex)
        amp[pos] = 1.0
        return cls(amp, basis)


@dataclass(frozen=True)
class Polynomial:
    """Real coefficients a_0..a_d; coefficient of t^k sits at index k."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.array(self.coefficients, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d vector")
        object.__setattr__(self, "coefficients", _freeze(c))

    def degree(self) -> int:
        """Index of the highest stored coefficient (trailing zeros permitted)."""
        return self.coefficients.size - 1

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(t, self.coefficients)

    def coefficient(self, k: int) -> float:
        """a_k, treating absent indices as zero."""
        if 0 <= k < self.coefficients.size:
            return float(self.coefficients[k])
        return 0.0


@dataclass(frozen=True)
class SampleSet:
    """Noisy evaluations (t_i, y_i) of a univariate function."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        t = np.atleast_1d(np.array(self.t, dtype=float))
        y = np.atleast_1d(np.array(self.y, dtype=float))
        if t.shape != y.shape or t.ndim != 1:
            raise ValueError("t and y must be 1-d vectors of equal length")
        if np.unique(t).size != t.size:
            raise ValueError("sample abscissae must be distinct")
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "y", _freeze(y))

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class Rng:
    """Deterministic random source: a 64-bit seed plus a substream path.

    The generator algorithm is fixed to numpy's PCG64 seeded through
    SeedSequence(entropy=seed, spawn_key=stream path); normals come from
    Generator.standard_normal (ziggurat).  generator() starts a fresh
    stream every call, so an Rng behaves as a value: the same (seed,
    stream) always reproduces the same draw sequence.  Use substream(k)
    to hand independent deterministic streams to parallel tasks.
    """

    seed: int
    stream: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        path = self.stream if isinstance(self.stream, tuple) else (self.stream,)
        if not all(isinstance(s, int) and s >= 0 for s in path):
            raise ValueError("stream path must contain non-negative integers")
        object.__setattr__(self, "stream", path)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, k: int) -> "Rng":
        return Rng(self.seed, self.stream + (k,))


def sample_coupling(n: int, rng: Rng) -> CouplingMatrix:
    """An n x n matrix of independent standard normal couplings."""
    if n < 1:
        raise ValueError("n must be positive")
    return CouplingMatrix(rng.generator().standard_normal((n, n)))
