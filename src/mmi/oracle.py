"""Independent brute-force verification of the intensity formulas.

Everything here deliberately avoids the quadrature engine and the closed
forms: states live on an explicit discrete frequency grid, the detector
field acts on explicit amplitude arrays, and the detection probability is
summed over final states directly (plain sums, no FFT, no shared code
paths).  Its only job is to disagree with :mod:`mmi.intensity` when one of
the two is wrong.

The detector averages over an infinite time window: the average of
e^{i(ω-ω')t} is the Kronecker delta, which collapses the double frequency
sum onto its diagonal, so the detection probability is the plain sum of
|amplitude|² over the final states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _workers
from .spectra import SpectralDistribution
from .states import mean_occupation

__all__ = [
    "CoherentField",
    "ModeGrid",
    "MonteCarloIntensity",
    "ResourceLimitError",
    "TruncatedState",
    "build_coherent",
    "build_one_photon",
    "detect_intensity_bruteforce",
    "spectral_mode_grid",
    "thermal_mode_grid",
    "thermal_intensity_montecarlo",
]


class ResourceLimitError(RuntimeError):
    """Raised when a brute-force evaluation would exceed its amplitude cap."""


# Most final-state amplitudes one brute-force Fock evaluation may hold.
_AMPLITUDE_CAP = 1_000_000
# Samples per Monte-Carlo chunk, each drawn from its own child stream of the seed.
_BATCH = 512


@dataclass(frozen=True)
class ModeGrid:
    """Discrete, strictly increasing, positive frequency grid with cell widths."""

    frequencies: np.ndarray
    weights: np.ndarray  # integration cell width per mode

    def __post_init__(self):
        w = self.frequencies
        if w.ndim != 1 or w.size == 0:
            raise ValueError("mode grid must be a non-empty 1-d array")
        if np.any(w <= 0.0):
            raise ValueError("all mode frequencies must be positive")
        if np.any(np.diff(w) <= 0.0):
            raise ValueError("mode frequencies must be strictly increasing")
        if self.weights.shape != w.shape or np.any(self.weights <= 0.0):
            raise ValueError("cell widths must be positive and match the grid")

    @property
    def size(self) -> int:
        return self.frequencies.size

    @classmethod
    def uniform(cls, lo: float, hi: float, m: int) -> "ModeGrid":
        freqs = np.linspace(lo, hi, m)
        dw = (hi - lo) / (m - 1) if m > 1 else 1.0
        return cls(frequencies=freqs, weights=np.full(m, dw))

    @classmethod
    def log_spaced(cls, lo: float, hi: float, m: int) -> "ModeGrid":
        freqs = np.geomspace(lo, hi, m)
        w = np.empty(m)
        w[1:-1] = 0.5 * (freqs[2:] - freqs[:-2])
        w[0] = 0.5 * (freqs[1] - freqs[0])
        w[-1] = 0.5 * (freqs[-1] - freqs[-2])
        return cls(frequencies=freqs, weights=w)


# Half-width, in widths, of the spectral coverage a one-photon mode grid needs.
_COVERAGE_WIDTHS = 6.0


def spectral_mode_grid(*spectra: SpectralDistribution, m: int = 101) -> ModeGrid:
    """Uniform grid covering ω̄ ± 6σ of every given spectrum (what
    :func:`build_one_photon` requires).

    The lower edge is clipped half a cell above ω = 0 when the nominal
    coverage would reach negative frequencies (which the states do not
    occupy and the continuum integrals exclude).
    """
    if not spectra:
        raise ValueError("at least one spectrum is required")
    hi = max(s.mean_freq + _COVERAGE_WIDTHS * s.width for s in spectra)
    lo = min(s.mean_freq - _COVERAGE_WIDTHS * s.width for s in spectra)
    if lo <= 0.0:
        lo = hi / (2 * m)
    return ModeGrid.uniform(lo, hi, m)


def thermal_mode_grid(theta: float) -> ModeGrid:
    """256 log-spaced modes over [1e-3, 30]·θ, resolving the occupation pole and tail."""
    return ModeGrid.log_spaced(1e-3 * theta, 30.0 * theta, 256)


@dataclass(frozen=True)
class TruncatedState:
    """A one-photon wavepacket over a mode grid (cap one photon per mode).

    The amplitude on mode j is √(δω_j) f(ω_j), renormalized to unit norm;
    the pre-normalization deficit records the discretization plus domain
    truncation loss.  Photon number is conserved until detection, so one
    photon never needs more than one quantum per mode: only the
    single-photon sector (one amplitude per mode) is stored.
    """

    grid: ModeGrid
    amplitudes: np.ndarray
    norm_deficit: float = 0.0

    def __post_init__(self):
        if self.amplitudes.shape != self.grid.frequencies.shape:
            raise ValueError("amplitude array must match the mode grid")
        total = float(np.sum(self.amplitudes**2))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {total - 1.0:.2e}")

    def mean_frequency(self) -> float:
        return float(np.sum(self.amplitudes**2 * self.grid.frequencies))


@dataclass(frozen=True)
class CoherentField:
    """Per-mode coherent eigenvalues √(δω_j) f(ω_j) (no renormalization)."""

    grid: ModeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.frequencies.shape:
            raise ValueError("eigenvalue array must match the mode grid")


def build_one_photon(spectrum: SpectralDistribution, grid: ModeGrid) -> TruncatedState:
    """Discretize a one-photon wavepacket onto a mode grid.

    The grid must cover at least six widths around the mean (the portion at
    negative frequencies, which the continuum state does not occupy, is
    exempt).  A single-mode grid is the degenerate monochromatic case and
    skips the coverage requirement: renormalization puts the whole photon
    on that mode.
    """
    if grid.size > 1:
        need_hi = spectrum.mean_freq + _COVERAGE_WIDTHS * spectrum.width
        need_lo = max(spectrum.mean_freq - _COVERAGE_WIDTHS * spectrum.width, grid.weights[0])
        if grid.frequencies[-1] < need_hi - 1e-9 or grid.frequencies[0] > need_lo + 1e-9:
            raise ValueError("mode grid does not cover six spectral widths around the mean")
    amps = np.sqrt(grid.weights) * spectrum.amplitude(grid.frequencies)
    total = float(np.sum(amps**2))
    return TruncatedState(
        grid=grid,
        amplitudes=amps / math.sqrt(total),
        norm_deficit=1.0 - total,
    )


def build_coherent(spectrum: SpectralDistribution, grid: ModeGrid) -> CoherentField:
    values = np.sqrt(grid.weights) * spectrum.amplitude(grid.frequencies)
    return CoherentField(grid=grid, values=values.astype(complex))


def _port_factors(omega: np.ndarray, tau: float):
    # per-mode arm factors with the common e^{i phi_2} removed
    phase = np.exp(1j * omega * tau)
    signal = 1j * 0.5 * (1.0 + phase)  # i sqrt(T(1-T)) (1 + e^{i w tau}) at T=1/2
    lo = 0.5 * (1.0 - phase)           # T - (1-T) e^{i w tau} at T=1/2
    return signal, lo


def _probability(amplitudes: np.ndarray) -> float:
    """Σ |amplitude|² over the final states, by numpy's pairwise sum: a BLAS
    dot splits a long sum among its threads, so its rounding would depend
    on the CPU count."""
    return float(np.sum(amplitudes.real**2 + amplitudes.imag**2))


def detect_intensity_bruteforce(signal, lo, tau: float, *, d: int = 1) -> float:
    """Unnormalized detected intensity from explicit discrete states.

    ``signal``/``lo`` are :class:`TruncatedState`, :class:`CoherentField`,
    or None (vacuum); both occupied ports must share a grid type scenario
    (two one-photon states, or coherent/thermal eigenvalue fields).  The
    measure weight is δω_j ω_j^d per mode; constants shared with the
    intensity module are dropped, so only ratios are comparable.
    """
    if signal is None and lo is None:
        return 0.0
    if isinstance(signal, TruncatedState) or isinstance(lo, TruncatedState):
        return _bruteforce_fock(signal, lo, tau, d)
    return _bruteforce_coherent(signal, lo, tau, d)


def _measure(grid: ModeGrid, d: int) -> np.ndarray:
    return grid.weights * grid.frequencies**d


def _bruteforce_fock(signal, lo, tau, d):
    if signal is None:
        raise ValueError("vacuum is only supported in the LO port")
    if not isinstance(signal, TruncatedState) or not (lo is None or isinstance(lo, TruncatedState)):
        raise ValueError("mixed one-photon/coherent ports are not supported")

    grid = signal.grid
    omega = grid.frequencies
    m_sig = grid.size
    m_lo = lo.grid.size if lo is not None else 1
    if m_sig * m_lo > _AMPLITUDE_CAP:
        raise ResourceLimitError(
            f"final-state workspace {m_sig * m_lo} exceeds the cap {_AMPLITUDE_CAP}"
        )

    sig_f, lo_f = _port_factors(omega, tau)
    root_measure = np.sqrt(_measure(grid, d))
    # Detector field applied to |1_s> x |1_lo>: annihilating the signal
    # photon from mode m leaves final state |0, 1_k>, amplitude
    # a_sig[k, m] = d_k * s_m; annihilating the LO photon leaves |1_j, 0>,
    # amplitude a_lo[j, m] = c_j * l_m.  The two sectors are orthogonal, so
    # the detection probability sums their squares.
    s = root_measure * sig_f * signal.amplitudes
    if lo is None:
        # single final state |0, 0>
        return _probability(s)

    if not np.array_equal(lo.grid.frequencies, omega):
        raise ValueError("both ports must share one mode grid")
    l = np.sqrt(_measure(lo.grid, d)) * lo_f * lo.amplitudes
    a_sig = np.outer(lo.amplitudes, s)
    a_lo = np.outer(signal.amplitudes, l)
    return _probability(a_sig) + _probability(a_lo)


def _bruteforce_coherent(signal, lo, tau, d):
    grid = signal.grid if signal is not None else lo.grid
    omega = grid.frequencies
    beta_s = signal.values if signal is not None else np.zeros(grid.size, complex)
    beta_l = lo.values if lo is not None else np.zeros(grid.size, complex)
    if signal is not None and lo is not None:
        if not np.array_equal(signal.grid.frequencies, lo.grid.frequencies):
            raise ValueError("both ports must share one mode grid")

    sig_f, lo_f = _port_factors(omega, tau)
    root_measure = np.sqrt(_measure(grid, d))
    return _probability(root_measure * (beta_s * sig_f + beta_l * lo_f))


@dataclass(frozen=True)
class MonteCarloIntensity:
    """Monte-Carlo estimate of thermal interferogram ratios.

    ``ratios[i] ± stderrs[i]`` estimates ⟨I⟩(τ_i)/⟨I⟩(0); the cross-term
    fields report the phase-sensitive contribution alone, which must be
    statistically compatible with zero for chaotic light.  ``seed`` fixes
    the random numbers drawn, in chunks of ``batch`` samples (see
    :func:`thermal_intensity_montecarlo`).  The arrays are read-only.
    """

    delays: np.ndarray
    ratios: np.ndarray
    stderrs: np.ndarray
    cross_mean: float
    cross_stderr: float
    samples: int
    seed: int
    batch: int


def thermal_intensity_montecarlo(
    theta_signal: float,
    theta_lo: float | None,
    tau,
    *,
    d: int = 3,
    samples: int = 100_000,
    seed: int = 0,
) -> MonteCarloIntensity:
    """Phase-space Monte-Carlo oracle for thermal scenarios.

    Each draw realizes both ports as chaotic fields (circular complex
    Gaussians with per-mode mean |β|² = n̄), evaluates the coherent-state
    detection intensity for that realization at every requested delay and
    at zero delay, and averages.  The ratio estimator is the ratio of the
    two sample means over common draws; its standard error comes from the
    delta method with the sampled covariance.

    The field is drawn in polar form.  A circular complex Gaussian with
    E|β|² = n̄ has |β|² = n̄·E, E ~ Exp(1), and an independent uniform phase,
    and the intensity reads the field only through |β_s|², |β_l|² and
    Re(β_l β_s*) = √(|β_s|²|β_l|²) cos Δφ, where the relative phase Δφ of two
    independent uniform phases is itself uniform.  So each mode of a draw
    takes a signal exponential, then an LO exponential and one uniform U,
    turned into cos Δφ as sin(π(U - ½)), which has the same arcsine law.
    Thermal/vacuum draws the signal exponentials only.  The occupations
    n̄_s, n̄_l and √(n̄_s n̄_l) are folded into the delay weights once.

    U and its sine are float32: numpy's float64 sine makes one libm call
    per value, its float32 sine runs in SIMD lanes, and the float64 sine
    took about 40 % of a thermal-pair call.  Everything else is float64:
    the exponentials, √(E_s E_l), the weights, the products and every sum.
    The law is unchanged.  A float32 U lies on a 2⁻²⁴ lattice and the
    float32 sine is good to a few ulp, so each draw's cross term moves by
    at most about 1e-7 relative, against a standard error of the ratio
    near 8e-4 at 20 000 samples.  The bits of a pair's result may differ
    by an ulp between numpy builds or SIMD targets, as libm's sine already
    may.

    Each chunk of 512 samples (the last one holds the remainder)
    draws from its own ``SeedSequence(seed)`` child stream and returns its
    partial sums; the chunks run on one worker thread per CPU available to
    the process (none on one CPU), each into buffers the calling thread
    allocated, and the partial sums are added in chunk order.  So the
    result depends on the seed alone, not on the CPU count: every worker
    runs the same SIMD loop.  The products with the delay weights are
    taken in row blocks of at most 2¹⁹ multiply-adds: from about 10⁶ a
    gemm starts OpenBLAS threads of its own, which would oversubscribe the
    CPUs the workers already use.
    """
    if samples < 1000:
        raise ValueError("at least 1000 samples are required")
    taus = np.array(tau, dtype=float, ndmin=1)  # a copy the caller cannot edit; the result keeps it
    taus.flags.writeable = False
    if not np.all(np.isfinite(taus)):
        raise ValueError("delays must be finite")
    if not taus.size:
        raise ValueError("at least one delay is required")
    grid = thermal_mode_grid(max(theta_signal, theta_lo or 0.0))
    omega = grid.frequencies
    measure = _measure(grid, d)

    k = taus.size
    nbar_s = np.asarray(mean_occupation(omega, theta_signal))
    cos_m = np.cos(np.outer(omega, taus))  # (M, K)
    # signal weights at every delay, then at zero delay in the last column: one gemm gives x and y
    w_signal = np.column_stack([(measure * nbar_s)[:, None] * (1.0 + cos_m), 2.0 * measure * nbar_s])
    if theta_lo is not None:
        nbar_l = np.asarray(mean_occupation(omega, theta_lo))
        w_minus = (measure * nbar_l)[:, None] * (1.0 - cos_m)
        w_cross = (measure * np.sqrt(nbar_s * nbar_l))[:, None] * (-2.0 * np.sin(np.outer(omega, taus)))
    cross_idx = int(np.argmax(np.abs(taus)))  # report the cross term at the largest delay
    gemm_rows = max(1, 2**19 // (omega.size * (k + 1)))  # product blocks below OpenBLAS's threading

    def product(e, w):
        out = np.empty((e.shape[0], w.shape[1]))
        for r in range(0, e.shape[0], gemm_rows):
            np.matmul(e[r : r + gemm_rows], w, out=out[r : r + gemm_rows])
        return out

    def chunk(stream, e_s, e_l=None, phase=None):
        rng = np.random.default_rng(stream)
        rng.standard_exponential(out=e_s)
        xy = product(e_s, w_signal)
        x, y = xy[:, :k], xy[:, k]
        if theta_lo is not None:
            rng.standard_exponential(out=e_l)
            # cos Δφ drawn as sin(π(U - ½)) in float32, whose sine numpy vectorizes
            rng.random(out=phase, dtype=np.float32)
            phase -= 0.5
            phase *= math.pi
            np.sin(phase, out=phase)
            x += product(e_l, w_minus)
            # e_s becomes √(E_s E_l) cos Δφ in place
            e_s *= e_l
            np.sqrt(e_s, out=e_s)
            e_s *= phase
            cross = product(e_s, w_cross)
            x += cross
            c_term = cross[:, cross_idx]
        else:
            c_term = np.zeros(e_s.shape[0])
        return (x.sum(axis=0), y.sum(), (x * x).sum(axis=0), (y * y).sum(),
                (x * y[:, None]).sum(axis=0), c_term.sum(), (c_term * c_term).sum())

    sizes = [min(_BATCH, samples - start) for start in range(0, samples, _BATCH)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    workers = min(_workers.cpu_count(), len(sizes))
    # Every draw lands in its worker's buffers, allocated here by the calling
    # thread: the memory a call takes is then the same whichever way its
    # threads interleave.
    dtypes = (np.float64,) if theta_lo is None else (np.float64, np.float64, np.float32)
    buffers = [[np.empty((sizes[0], omega.size), dtype) for dtype in dtypes] for _ in range(workers)]
    parts = [None] * len(sizes)

    def job(i, worker):
        parts[i] = chunk(streams[i], *(buffer[: sizes[i]] for buffer in buffers[worker]))

    _workers.run(job, len(sizes), workers)
    sum_x, sum_y, sum_xx, sum_yy, sum_xy, sum_c, sum_cc = (sum(col) for col in zip(*parts))

    m = float(samples)
    mean_x = sum_x / m
    mean_y = sum_y / m
    ratios = mean_x / mean_y
    var_x = np.maximum(sum_xx / m - mean_x**2, 0.0)
    var_y = max(sum_yy / m - mean_y**2, 0.0)
    cov_xy = sum_xy / m - mean_x * mean_y
    var_ratio = np.maximum(var_x - 2.0 * ratios * cov_xy + ratios**2 * var_y, 0.0)
    stderrs = np.sqrt(var_ratio / m) / mean_y
    ratios.flags.writeable = False
    stderrs.flags.writeable = False

    # cross estimator normalized by the analytic-free sampled <I(0)>
    cross_mean = (sum_c / m) / mean_y
    cross_var = max(sum_cc / m - (sum_c / m) ** 2, 0.0)
    cross_stderr = math.sqrt(cross_var / m) / mean_y

    return MonteCarloIntensity(
        delays=taus,
        ratios=ratios,
        stderrs=stderrs,
        cross_mean=float(cross_mean),
        cross_stderr=float(cross_stderr),
        samples=samples,
        seed=seed,
        batch=_BATCH,
    )
