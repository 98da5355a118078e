"""End-to-end acceptance checks.

Eleven numbered criteria cover the algebra axioms, the kernel calculus,
the spectral experiments, and reproducibility.  Each test prints one
[PASS]/[FAIL] verdict directly on the terminal (bypassing capture) so a
tee'd pytest run shows the scoreboard inline, then asserts.
"""

import time

import numpy as np

from nctorus.algebra import (
    embedded,
    involution,
    l2_norm,
    monomial,
    random_element,
    trace,
    twisted_convolve,
)
from nctorus.cli import main
from nctorus.cocycle import ThetaMatrix, phase_pairs, reduce_theta
from nctorus.experiments import (
    ExperimentConfig,
    run_potential_decay,
    run_schwartz_bound,
    run_theorem_scan,
)
from nctorus.kernels import (
    bessel_kernel,
    flip_adjoint,
    kernel_matrix,
    random_kernel,
)
from nctorus.lattice import LatticeBox
from nctorus.multipliers import bessel_weights
from nctorus.reference import apply_kernel_definitional
from nctorus.schatten import schatten_norm, singular_values
from nctorus.kernels import apply_kernel, sobolev_lift


def _verdict(capfd, num: int, name: str, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[{mark}] criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _gap(x, y) -> float:
    r = max(x.box.radius, y.box.radius)
    box = LatticeBox(x.box.d, r)
    return float(np.max(np.abs(embedded(x, box).coeffs - embedded(y, box).coeffs)))


def _random_theta(rng, d: int) -> ThetaMatrix:
    m = rng.uniform(-0.5, 0.5, size=(d, d))
    return ThetaMatrix(m - m.T)


def test_criterion_01_algebra_axioms(capfd):
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=101))
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        radius = int(rng.integers(1, 3))
        full = _random_theta(rng, d)
        red = reduce_theta(full)
        box = LatticeBox(d, radius)
        f = random_element(red, box, rng)
        g = random_element(red, box, rng)
        h = random_element(red, box, rng)
        scale = max(l2_norm(f) * l2_norm(g) * max(l2_norm(h), 1.0), 1e-30)

        assoc = _gap(
            twisted_convolve(twisted_convolve(f, g), h),
            twisted_convolve(f, twisted_convolve(g, h)),
        )
        fg, gf = twisted_convolve(f, g), twisted_convolve(g, f)
        tr = abs(trace(fg) - trace(gf))
        star = _gap(involution(fg), twisted_convolve(involution(g), involution(f)))

        a, b = rng.integers(-radius, radius + 1, size=(2, d))
        ua, ub = monomial(red, a, box), monomial(red, b, box)
        phase = np.exp(2j * np.pi * float(a @ full.entries @ b))
        comm = _gap(twisted_convolve(ua, ub), phase * twisted_convolve(ub, ua))

        m, n, p = rng.integers(-5, 6, size=(3, 8, d))
        lhs = phase_pairs(red.entries, m, n) * phase_pairs(red.entries, m + n, p)
        rhs = phase_pairs(red.entries, n, p) * phase_pairs(red.entries, m, n + p)
        cocycle = float(np.max(np.abs(lhs - rhs)))

        worst = max(worst, assoc / scale, tr / scale, star / scale, comm, cocycle)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _verdict(
        capfd, 1, "algebra axioms on 100 random draws", ok,
        f"max relative error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_kernel_action_oracle(capfd):
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=202))
    worst = 0.0
    for _ in range(50):
        full = _random_theta(rng, 2)
        red = reduce_theta(full)
        radius = int(rng.integers(1, 3))
        k = random_kernel(red, radius, 0.5, 0.5, int(rng.integers(0, 2**31)))
        x = random_element(red, LatticeBox(2, radius), rng)
        worst = max(worst, _gap(apply_kernel(k, x), apply_kernel_definitional(k, x)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 60.0
    _verdict(
        capfd, 2, "kernel action matches the definitional oracle", ok,
        f"max error {worst:.3e} over 50 triples, {elapsed:.1f}s",
    )


def test_criterion_03_bessel_kernel_identity(capfd):
    cfg = ExperimentConfig()
    box = LatticeBox(2, 6)
    worst = 0.0
    for alpha2 in (0.0, 0.5, 1.0, 2.0):
        # kernel matrix minus the diagonal of symbol values
        gap = kernel_matrix(bessel_kernel(alpha2, box, cfg.reduced))
        gap[np.diag_indices_from(gap)] -= bessel_weights(-alpha2, box)
        worst = max(worst, float(np.max(np.abs(gap))))
    ok = worst <= 1e-13
    _verdict(
        capfd, 3, "diagonal kernel reproduces the Bessel multiplier", ok,
        f"max entry gap {worst:.3e}",
    )


def test_criterion_04_factorization(capfd):
    cfg = ExperimentConfig()
    box = LatticeBox(2, 6)
    assert box.cardinality == 169
    rng = np.random.Generator(np.random.Philox(key=404))
    worst = 0.0
    for _ in range(20):
        k = random_kernel(cfg.reduced, 6, 2.5, 2.5, int(rng.integers(0, 2**31)))
        a1, a2 = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        # multipliers as row (left factor) and column (right factor) scalings
        v1 = bessel_weights(a1, box)
        v2 = bessel_weights(-a2, box)
        lhs = v1[:, None] * kernel_matrix(k)
        rhs = kernel_matrix(sobolev_lift(k, a1, a2)) * v2[None, :]
        gap = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
        worst = max(worst, float(gap))
    ok = worst <= 1e-12
    _verdict(
        capfd, 4, "multiplier/kernel factorization on 169x169 matrices", ok,
        f"max relative Frobenius gap {worst:.3e}",
    )


def test_criterion_05_hilbert_schmidt_identity(capfd):
    cfg = ExperimentConfig()
    rng = np.random.Generator(np.random.Philox(key=505))
    worst = 0.0
    for _ in range(20):
        k = random_kernel(cfg.reduced, 6, 1.5, 1.5, int(rng.integers(0, 2**31)))
        mat = kernel_matrix(k)
        worst = max(worst, abs(np.linalg.norm(mat) - k.l2_norm()) / k.l2_norm())
    ok = worst <= 1e-12
    _verdict(
        capfd, 5, "Hilbert-Schmidt norm equals the kernel L2 norm", ok,
        f"max relative gap {worst:.3e} over 20 kernels",
    )


def test_criterion_06_adjoint_identity(capfd):
    cfg = ExperimentConfig()
    rng = np.random.Generator(np.random.Philox(key=606))
    worst = 0.0
    for _ in range(20):
        k = random_kernel(cfg.reduced, 6, 1.5, 1.5, int(rng.integers(0, 2**31)))
        mat = kernel_matrix(k)
        adj = kernel_matrix(flip_adjoint(k))
        worst = max(
            worst, float(np.linalg.norm(adj - np.conj(mat.T)) / np.linalg.norm(mat))
        )
    ok = worst <= 1e-12
    _verdict(
        capfd, 6, "flip adjoint matches the conjugate transpose", ok,
        f"max relative gap {worst:.3e} over 20 kernels",
    )


def test_criterion_07_potential_decay(capfd):
    t0 = time.perf_counter()
    records = run_potential_decay(2, 2.0, (20, 40))
    elapsed = time.perf_counter() - t0
    slope = records[0].slope
    w20, w40 = records[0].weak_norm, records[1].weak_norm
    drift = abs(w40 - w20) / w20
    ok = abs(slope - (-1.0)) <= 0.1 and drift <= 0.2 and elapsed < 10.0
    _verdict(
        capfd, 7, "potential spectra decay at the predicted rate", ok,
        f"slope {slope:.4f}, weak-norm drift {drift:.2%}, {elapsed:.1f}s",
    )


def test_criterion_08_schatten_scan_stabilizes(capfd):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(alpha1=1.0, alpha2=1.0, s_margin=0.5, r_grid=(1.0, 2.0))
    records = run_theorem_scan(cfg)
    worst_drift = 0.0
    for r in (1.0, 2.0):
        norms = [rec.s_r_norm for rec in records if rec.r == r]
        worst_drift = max(worst_drift, abs(norms[-1] - norms[-2]) / norms[-2])

    flat = ExperimentConfig(alpha1=0.0, alpha2=0.0, r_grid=(2.0,))
    s1, s2 = flat.envelope_exponents()
    worst_hs = 0.0
    for rec in run_theorem_scan(flat):
        k = random_kernel(flat.reduced, rec.N, s1, s2, flat.seed)
        worst_hs = max(worst_hs, abs(rec.s_r_norm - k.l2_norm()) / k.l2_norm())
    elapsed = time.perf_counter() - t0
    ok = worst_drift < 0.05 and worst_hs <= 1e-12 and elapsed < 300.0
    _verdict(
        capfd, 8, "Schatten scan stabilizes across box sizes", ok,
        f"last-step drift {worst_drift:.2%}, flat-case HS gap {worst_hs:.3e}, {elapsed:.1f}s",
    )


def test_criterion_09_schwartz_bound(capfd):
    result = run_schwartz_bound(ExperimentConfig(N_grid=(6,)))
    ok = result.worst_ratio <= 1.0 + 1e-10 and result.s0 == 3.0
    _verdict(
        capfd, 9, "coefficients sit below the smoothness envelope", ok,
        f"worst ratio {result.worst_ratio:.6f} at margin s0={result.s0:g}",
    )


def test_criterion_10_hoelder_inequality(capfd):
    rng = np.random.Generator(np.random.Philox(key=1010))
    violations = 0
    worst = -np.inf
    for _ in range(100):
        side = int(rng.integers(2, 51))
        p2 = float(rng.choice([1.0, 2.0, 4.0]))
        t = 1.0 / (0.5 + 1.0 / p2)
        a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        b = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        lhs = schatten_norm(singular_values(a @ b), t)
        rhs = schatten_norm(singular_values(a), 2.0) * schatten_norm(
            singular_values(b), p2
        )
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-10:
            violations += 1
    ok = violations == 0
    _verdict(
        capfd, 10, "Hoelder composition inequality on 100 random pairs", ok,
        f"{violations} violations, worst margin {worst:.3e}",
    )


def test_criterion_11_deterministic_outputs(capfd, tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["scan", "--out", str(first)]) == 0
    assert main(["scan", "--out", str(second)]) == 0

    def strip_wall(path):
        lines = path.read_text().strip().split("\n")
        return [lines[0]] + [line.rsplit(",", 1)[0] for line in lines[1:]]

    a, b = strip_wall(first), strip_wall(second)
    ok = a == b and len(a) == 13
    _verdict(
        capfd, 11, "repeated scans emit identical records", ok,
        f"{len(a) - 1} records compared modulo wall time",
    )
