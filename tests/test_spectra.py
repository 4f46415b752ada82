import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from nare import (
    BracketFailure,
    NotCriticalCase,
    PoleHit,
    TransportParams,
    assemble_blocks,
    build_problem,
    cayley,
    closed_loop_spectrum,
    default_shift,
    interlaced_spectrum,
    quadrature_params,
    sda_rate_bound,
    shifted_coefficients,
    shifted_interlaced_spectrum,
)
from nare import spectra
from nare.sda import SdaConfig, resolve_gamma, sda_solve
from nare.shift import make_shift, omega_lower_bound
from nare.spectra import _rational_sums
from oracles import secular_sums


def shifted_block(problem, spec):
    quad = shifted_coefficients(problem, spec, check=False)
    n = problem.n
    return np.block([[quad.D, -quad.C], [-quad.B, quad.A]])


def secular_det(problem, lam):
    """(sign, log |det|) of M - lam I from the factored form -prod(1/om_i - lam)^2 * g1."""
    g1, _, _ = secular_sums(problem, lam)
    log_prod = float(np.sum(np.log(np.abs(1.0 / problem.omegas - lam))))
    return -int(np.sign(g1)), 2.0 * log_prod + np.log(abs(g1))


def test_secular_det_special_values(prob1):
    assert secular_sums(prob1, 0.0)[0] == 0.0
    sign, log_mag = secular_det(prob1, 1.0)
    assert sign == -1
    assert log_mag == pytest.approx(0.0, abs=1e-14)


def test_secular_det_pole_guard(prob1):
    with pytest.raises(PoleHit):
        secular_sums(prob1, 2.0 + 1e-16)


def test_secular_det_requires_critical(prob_noncrit32):
    with pytest.raises(NotCriticalCase):
        secular_sums(prob_noncrit32, 0.5)


def test_secular_det_sign_against_lu_oracle(prob8, rng):
    m_block, _ = assemble_blocks(prob8)
    eye = np.eye(2 * prob8.n)
    poles = 1.0 / prob8.omegas
    count = 0
    while count < 50:
        lam = rng.uniform(-1.0, 1.2 * poles.max())
        if lam == 0.0 or np.min(np.abs(poles - lam)) < 1e-6:
            continue
        count += 1
        sign, log_mag = secular_det(prob8, lam)
        _, ref_log_mag = np.linalg.slogdet(m_block - lam * eye)
        assert sign == oracles.det_sign(m_block - lam * eye)
        assert abs(log_mag - ref_log_mag) <= 1e-10 * abs(ref_log_mag)


def test_secular_det_midgap_sign(prob32):
    m_block, _ = assemble_blocks(prob32)
    poles = np.sort(1.0 / prob32.omegas)
    lam = 0.5 * (poles[0] + poles[1])
    expected = oracles.det_sign(m_block - lam * np.eye(2 * prob32.n))
    assert secular_det(prob32, lam)[0] == expected


def test_secular_sums_scalar_case(prob1):
    g1, g2, g3 = secular_sums(prob1, 1.0)
    assert (g1, g2, g3) == (1.0, 0.5, 2.0)
    assert g1 - g3 == -1.0


def test_batched_sums_round_like_single_calls(rng):
    # bit for bit against one-point calls, over three row blocks, for the poles
    # 1/om and for mu = lam^2 over 1/om^2, at origin 0 and with poles as origins;
    # at origin 0 bit for bit as r_i = 1/(p_i - lam) contracted by einsum; against
    # the written-out sums to 3 n eps sum|terms|: r_i rounds twice, its product
    # with num_i once, and each sum n - 1 times
    problem = build_problem(quadrature_params(64))
    om, c, n = problem.omegas, problem.weights, problem.n
    eps = np.finfo(float).eps
    for nums, poles in (([c, c * om, c / om], 1.0 / om), ([c / om ** 2], 1.0 / om ** 2)):
        sums = _rational_sums(poles, *nums)
        nums = np.array(nums)
        size = 2 * (spectra.ROW_BLOCK // n) + 37
        lams = rng.uniform(0.0, poles.max(), size)
        origins = rng.choice(poles, size)
        taus = origins * rng.uniform(-1e-3, 1e-3, size) * 10.0 ** rng.integers(-12, 1, size)
        for o, t in ((0.0, lams), (origins, taus)):
            batched = sums(o, t)
            o = np.broadcast_to(o, t.shape)
            for i in range(t.size):
                assert sums(o[i:i + 1], t[i:i + 1])[:, :, 0].tobytes() == batched[:, :, i].tobytes()
        batched = sums(0.0, lams)
        r = 1.0 / (poles - lams[:, None])
        assert batched.tobytes() == np.array([np.einsum("rn,kn->kr", r, nums),
                                              np.einsum("rn,kn->kr", r * r, nums)]).tobytes()
        terms = nums[:, None, :] / (poles - lams[:, None])
        dterms = terms / (poles - lams[:, None])
        assert np.all(np.abs(batched[1] - np.sum(dterms, axis=2))
                      <= 3 * n * eps * np.sum(np.abs(dterms), axis=2))
        written = np.sum(terms, axis=2)
        if len(nums) == 3:  # the oracle's (g1, g2, g3), with g1 = lam s(c)
            written = np.array([secular_sums(problem, lam) for lam in lams]).T
            written[0] /= lams
        assert np.all(np.abs(batched[0] - written) <= 3 * n * eps * np.sum(np.abs(terms), axis=2))


def test_secular_sums_identities(prob32, rng):
    om, c = prob32.omegas, prob32.weights
    cw = float(np.sum(c * om))
    poles = 1.0 / om
    done = 0
    while done < 100:
        lam = rng.uniform(0.0, poles.max())
        if np.min(np.abs(poles - lam)) < 1e-8:
            continue
        done += 1
        g1, g2, g3 = secular_sums(prob32, lam)
        scale1 = max(1.0, abs(g1), abs(lam * lam * g2))
        assert abs(g1 - lam * lam * g2 - lam * cw) <= 1e-9 * scale1
        scale2 = max(1.0, abs(g1), abs(g3))
        assert abs(g1 - g3 + 1.0) <= 1e-9 * scale2


def test_secular_sums_gap_chain(prob8):
    # inside a pole gap with g1 > 0: g3 >= g1/(lam om_k) >= g2/om_k
    poles = np.sort(1.0 / prob8.omegas)
    om_desc = np.sort(prob8.omegas)[::-1]
    for k in range(prob8.n - 1):
        for frac in (0.3, 0.6, 0.9):
            lam = poles[k] + frac * (poles[k + 1] - poles[k])
            g1, g2, g3 = secular_sums(prob8, lam)
            if g1 <= 0:
                continue
            om_k = om_desc[k]
            assert g3 >= g1 / (lam * om_k) - 1e-12 * abs(g3)
            assert g1 / (lam * om_k) >= g2 / om_k - 1e-12 * max(1.0, abs(g2 / om_k))


def test_shifted_secular_at_zero(prob8):
    spec = default_shift(prob8, "double")
    val = oracles.shifted_secular(prob8, spec, 0.0)
    om, c = prob8.omegas, prob8.weights
    expected = spec.eta * spec.xi * float(np.sum(c * om ** 2)) * float(np.sum(c))
    assert val == pytest.approx(expected, rel=1e-14)
    assert val < 0


def test_shifted_secular_xi_zero_reduces_to_g1(prob8):
    spec = make_shift(prob8, 0.3, 0.0, "single")
    for lam in (0.1, 0.7, 1.9):
        g1, _, _ = secular_sums(prob8, lam)
        assert oracles.shifted_secular(prob8, spec, lam) == pytest.approx(g1, rel=1e-15)


def test_shifted_secular_vanishes_at_shifted_eigenvalues(prob4):
    spec = default_shift(prob4, "double")
    mbar = shifted_block(prob4, spec)
    for lam in np.linalg.eigvals(mbar).real:
        g1, g2, g3 = secular_sums(prob4, lam)
        scale = max(1.0, abs(g1), abs(spec.eta * spec.xi * g2 * g3))
        assert abs(oracles.shifted_secular(prob4, spec, lam)) <= 1e-7 * scale


def test_interlaced_spectrum_n1(prob1):
    report = interlaced_spectrum(prob1)
    assert report.free_roots.size == 0
    assert np.allclose(report.eigenvalues, [0.0, 2.0], atol=0)


def test_interlaced_spectrum_n2_frozen(prob2):
    # interior root from the determinant-scan oracle: 1.875 for
    # omegas (0.8, 0.4), weights (0.5, 0.5)
    report = interlaced_spectrum(prob2)
    assert np.allclose(report.eigenvalues, [0.0, 1.25, 1.875, 2.5], atol=1e-10)
    m_block, _ = assemble_blocks(prob2)
    root, _ = oracles.det_sign_bisect(
        lambda lam: m_block - lam * np.eye(4), 1.3, 2.45)
    assert abs(root - 1.875) < 1e-9


@pytest.mark.parametrize("n", [8, 32, 64])
def test_interlaced_spectrum_ordering_and_oracle(n):
    problem = build_problem(quadrature_params(n))
    report = interlaced_spectrum(problem)
    eigs = report.eigenvalues
    assert len(eigs) == 2 * n
    assert np.all(np.diff(eigs) > 0)
    poles = np.sort(1.0 / problem.omegas)
    assert np.all(report.free_roots > poles[:-1])
    assert np.all(report.free_roots < poles[1:])
    # every eigenvalue of M is simple, so det(M - lam I) changes sign exactly once
    # between the midpoints around each located one
    m_block, _ = assemble_blocks(problem)
    eye = np.eye(2 * n)
    signs = [oracles.det_sign(m_block - lam * eye) for lam in 0.5 * (eigs[:-1] + eigs[1:])]
    assert 0 not in signs and np.all(np.diff(signs) != 0)


@pytest.mark.parametrize("n", [2, 8, 16])
def test_roots_are_relatively_accurate(n, prob2):
    # against 40-digit bisection of the same float64 data; a root that is
    # only bracketed to 1e-12 * max pole misses this by orders of magnitude
    problem = prob2 if n == 2 else build_problem(quadrature_params(n))
    om1 = float(problem.omegas[0])
    spec = make_shift(problem, 0.3 / om1, -0.2 / om1, "double")
    ref = oracles.secular_roots_mp(problem, shift=spec)
    mine = {"interlaced": interlaced_spectrum(problem).free_roots,
            "closed_loop": closed_loop_spectrum(problem)[1:],
            "shifted": shifted_interlaced_spectrum(problem, spec).free_roots}
    for kind, roots in mine.items():
        assert np.all(np.abs(roots - ref[kind]) <= 1e-14 * np.abs(ref[kind])), kind


def small_weight_problems(count=300):
    """Direction sets with weights over 14 decades, at (0, 1): seed 0, n = 2-23,
    omegas ~ U(0.01, 0.99) and weights 10^U(-14, 0), normalized."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        n = rng.integers(2, 24)
        omegas = np.sort(rng.uniform(0.01, 0.99, n))[::-1]
        weights = 10.0 ** rng.uniform(-14, 0, n)
        yield build_problem(TransportParams(0.0, 1.0, weights / weights.sum(), omegas))


def assert_within_units(roots, ref, lo, hi):
    """Each root within 16 (eps d + ulp) of its reference, d the distance to the
    nearer end of its interval (lo, hi)."""
    d = np.minimum(ref - lo, hi - ref)
    eps = np.finfo(float).eps
    assert np.all(np.abs(roots - ref) <= 16 * (eps * d + np.spacing(np.abs(ref))))


@pytest.mark.parametrize("n", [256, 512])
def test_closed_loop_root_keeps_its_digits_at_large_n(n):
    # root 12 against 40 digits: a stop at a bracket width of 1e-12 * max pole
    # left it 7.1e-13 (n = 256) and 4.5e-11 (n = 512) off, thousands of units
    problem = build_problem(quadrature_params(n))
    poles = np.sort(1.0 / problem.omegas)
    ref = oracles.secular_roots_mp(problem, gaps=[11])["closed_loop"]
    assert_within_units(closed_loop_spectrum(problem)[12:13], ref, poles[11], poles[12])


def test_roots_near_poles_keep_their_digits():
    # the first eight small-weight draws with n <= 8 put roots as near as 1.8e-14
    # (relative) to a pole, where only a stop relative to that distance is accurate
    draws = [p for p in small_weight_problems(100) if p.n <= 8][:8]
    assert len(draws) == 8
    for problem in draws:
        om1 = float(problem.omegas[0])
        spec = make_shift(problem, 0.3 / om1, -0.2 / om1, "double")
        ref = oracles.secular_roots_mp(problem, shift=spec)
        poles = np.sort(1.0 / problem.omegas)
        assert_within_units(interlaced_spectrum(problem).free_roots, ref["interlaced"],
                            poles[:-1], poles[1:])
        assert_within_units(closed_loop_spectrum(problem)[1:], ref["closed_loop"],
                            poles[:-1], poles[1:])
        ends = np.repeat(np.concatenate([[0.0], poles]), 2)
        assert_within_units(shifted_interlaced_spectrum(problem, spec).free_roots,
                            ref["shifted"], ends[:-2], ends[2:])


def test_small_weight_stress():
    # the unshifted spectra never fail; the shifted one fails only where its
    # probe finds no positive value: 11 and 3 of the 300 draws.  The closed-loop
    # lam are the square roots of roots mu = lam^2 strictly inside the gaps of
    # 1/om^2 (squaring lam back can round mu onto a pole: draw 93, gap 2)
    failures = np.zeros(2, dtype=int)
    for problem in small_weight_problems():
        interlaced_spectrum(problem)
        lams = closed_loop_spectrum(problem)
        assert np.all(np.isfinite(lams)) and np.all(np.diff(lams) > 0)
        mus = spectra._gap_roots(problem, problem.weights, 1.0 / problem.omegas ** 2)
        poles = np.sort(1.0 / problem.omegas ** 2)
        assert np.all((poles[:-1] < mus) & (mus < poles[1:]))
        assert lams[1:].tobytes() == np.sqrt(mus).tobytes()
        om1 = float(problem.omegas[0])
        for k, spec in enumerate((default_shift(problem, "double"),
                                  make_shift(problem, 0.3 / om1, -0.2 / om1, "double"))):
            try:
                shifted_interlaced_spectrum(problem, spec)
            except BracketFailure as err:
                assert "no positive value" in str(err)
                failures[k] += 1
    assert failures[0] <= 11 and failures[1] <= 3


def test_degenerate_directions():
    # directions one ulp apart put their poles 1/om two ulps apart: the interlaced
    # root is the one float between them, while the shifted spectrum's two brackets
    # there hold no float, so the finder returns their left ends, which the
    # shifted pattern check refuses
    om1 = 0.6000000000000222
    problem = build_problem(TransportParams(0.0, 1.0, np.array([0.25, 0.25, 0.5]),
                                            np.array([om1, np.nextafter(om1, 0.0), 0.3])))
    eigs = interlaced_spectrum(problem).eigenvalues
    assert len(eigs) == 6 and np.all(np.diff(eigs) > 0)
    lams = closed_loop_spectrum(problem)
    assert len(lams) == 3 and np.all(np.isfinite(lams)) and np.all(np.diff(lams) > 0)
    assert sda_rate_bound(problem) == 1.0
    with pytest.raises(BracketFailure, match="violates the interlacing pattern"):
        shifted_interlaced_spectrum(problem, default_shift(problem, "double"))


def test_a_bracket_open_at_the_round_cap_is_named(prob8, monkeypatch):
    monkeypatch.setattr(spectra, "MAX_ROUNDS", 2)
    with pytest.raises(BracketFailure, match=r"bracket \d+ \(.*\) still open after 2 rounds"):
        interlaced_spectrum(prob8)


def counting_sums(monkeypatch):
    """Route ``spectra._rational_sums`` through a wrapper; return its one-element
    list of evaluations of the sums."""
    count, sums_of = [0], spectra._rational_sums

    def counting(poles, *nums):
        sums = sums_of(poles, *nums)

        def counted(origins, taus):
            count[0] += 1
            return sums(origins, taus)

        return counted

    monkeypatch.setattr(spectra, "_rational_sums", counting)
    return count


def test_sum_evaluations_per_spectrum(monkeypatch):
    # every evaluation is one round of every open bracket; the two-pole first
    # step and the quadratic stop took these from 7, 7, 6 and 19
    problem = build_problem(quadrature_params(64))
    spec = default_shift(problem, "double")
    count = counting_sums(monkeypatch)
    for call, evaluations in ((lambda: interlaced_spectrum(problem), 6),
                              (lambda: closed_loop_spectrum(problem), 5),
                              (lambda: sda_rate_bound(problem, spec), 5),
                              (lambda: shifted_interlaced_spectrum(problem, spec), 17)):
        count[0] = 0
        call()
        assert count[0] == evaluations


def test_a_linear_run_is_not_stopped_early():
    # Newton on sign(x) |x|^1.5 shrinks the error by 3 a round, so a step of
    # 1e-10 |tau| leaves an error half its size: the quadratic test must not stop
    # it.  The root 1.25 + 2^-60 is no float, so f' never vanishes at a point
    def fn(origins, taus, ks):
        x = (origins + taus - 1.25) - 2.0 ** -60
        return np.array([np.sign(x) * np.abs(x) ** 1.5, 1.5 * np.sqrt(np.abs(x))])

    root = spectra._secular_roots(fn, np.array([1.0]), np.array([2.0]), -1.0,
                                  (1.0, 0.0, 2.0, 0.0))
    assert np.abs(root[0] - 1.25) <= 2 * np.spacing(1.25)


@pytest.mark.parametrize("root", [1.125, 1.25, 1.3, 1.5, 1.75])
def test_a_point_on_a_root_where_the_slope_vanishes_is_that_root(root):
    # sign(x) |x|^1.5 at a float root: a point on it has f = f' = 0, whose Newton
    # step would be 0/0 (NaN); it takes no step, and the root comes back exactly
    def fn(origins, taus, ks):
        x = origins + taus - root
        return np.array([np.sign(x) * np.abs(x) ** 1.5, 1.5 * np.sqrt(np.abs(x))])

    assert spectra._secular_roots(fn, np.array([1.0]), np.array([2.0]), -1.0,
                                  (1.0, 0.0, 2.0, 0.0)).tolist() == [root]


def test_a_root_next_to_a_double_pole_keeps_its_digits(monkeypatch):
    # small-weight draw 58 (n = 3): shifted root 3 sits 2.6e-13 of its interval
    # from a double pole, and its bracket closes on it linearly, halving its
    # distance to the pole for more than 40 rounds
    problem = list(small_weight_problems(59))[58]
    spec = default_shift(problem, "double")
    count = counting_sums(monkeypatch)
    roots = shifted_interlaced_spectrum(problem, spec).free_roots
    assert count[0] >= 40
    poles = np.sort(1.0 / problem.omegas)
    ends = np.repeat(np.concatenate([[0.0], poles]), 2)
    lo, hi = ends[:-2], ends[2:]
    near = np.minimum(np.where(lo > 0.0, roots - lo, np.inf), hi - roots) <= 1e-2 * (hi - lo)
    assert near[3]
    ref = oracles.secular_roots_mp(problem, shift=spec)["shifted"]
    assert_within_units(roots[near], ref[near], lo[near], hi[near])


def test_shifted_spectrum_n1_boundary_coalesced(prob1):
    spec = make_shift(prob1, 1.0, -1.0, "double")
    report = shifted_interlaced_spectrum(prob1, spec)
    assert report.on_boundary
    assert report.coalesced == (0,)
    assert np.allclose(report.eigenvalues, [1.0, 1.0], atol=1e-12)
    mbar = shifted_block(prob1, spec)
    assert np.allclose(np.sort(np.linalg.eigvals(mbar).real), [1.0, 1.0],
                       atol=1e-12)


@pytest.mark.parametrize("shift_pair", [None, (0.4, -0.35)])
def test_shifted_spectrum_matches_eig_oracle(prob8, shift_pair):
    if shift_pair is None:
        spec = default_shift(prob8, "double")
    else:
        om1 = float(prob8.omegas[0])
        spec = make_shift(prob8, shift_pair[0] / om1, shift_pair[1] / om1, "double")
    report = shifted_interlaced_spectrum(prob8, spec)
    assert len(report.free_roots) == 2 * prob8.n
    assert np.all(report.free_roots > 0)
    oracle = np.sort(np.linalg.eigvals(shifted_block(prob8, spec)).real)
    assert np.max(np.abs(np.sort(report.free_roots) - oracle)) < 1e-8


def test_shifted_spectrum_pattern(prob32):
    spec = default_shift(prob32, "double")
    report = shifted_interlaced_spectrum(prob32, spec)
    vals = report.free_roots
    poles = np.sort(1.0 / prob32.omegas)
    assert len(vals) == 64 and np.all(vals > 0)
    for k in range(prob32.n):
        lo = 0.0 if k == 0 else poles[k - 1]
        hi = poles[k]
        assert lo < vals[2 * k] < vals[2 * k + 1] < hi


def test_spectra_at_largest_benchmark_size():
    # the rational secular sums stay finite at n = 256, where the products
    # of the determinant's factored form overflow doubles
    problem = build_problem(quadrature_params(256))
    report = interlaced_spectrum(problem)
    eigs = report.eigenvalues
    assert len(eigs) == 512 and np.all(np.diff(eigs) > 0)
    poles = np.sort(1.0 / problem.omegas)
    assert np.all((poles[:-1] < report.free_roots) & (report.free_roots < poles[1:]))
    shifted = shifted_interlaced_spectrum(problem, default_shift(problem, "double"))
    assert len(shifted.free_roots) == 512
    assert np.all(shifted.free_roots > 0)


def test_closed_loop_spectrum_and_rate_bound_at_n512():
    # bisection starts at the poles themselves: an endpoint offset of 1e-13
    # of the gap width rounds back onto the pole at this size
    problem = build_problem(quadrature_params(512))
    lams = closed_loop_spectrum(problem)
    poles = np.sort(1.0 / problem.omegas)
    assert len(lams) == 512 and lams[0] == 0.0
    assert np.all(lams[1:] > poles[:-1]) and np.all(lams[1:] < poles[1:])
    assert 0.0 < sda_rate_bound(problem, default_shift(problem, "double")) < 1.0


@st.composite
def direction_sets(draw):
    n = draw(st.integers(1, 12))
    omegas = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)),
                    reverse=True)
    assume(np.all(-np.diff(omegas) >= 1e-4))
    # below ~1e-3, dense eigvals (the oracle) loses accuracy near the poles
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return build_problem(TransportParams(alpha=0.0, c=1.0, weights=weights / weights.sum(),
                                         omegas=np.array(omegas)))


def assert_same_spectrum(mine, block):
    dense = np.sort(np.linalg.eigvals(block).real)
    assert np.all(np.abs(np.sort(mine) - dense) <= 1e-9 * np.maximum(np.abs(dense), 1.0))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(direction_sets(), st.floats(0.02, 0.98), st.floats(0.02, 0.98))
def test_spectra_match_dense_eigenvalues(problem, eta_frac, xi_frac):
    assert_same_spectrum(interlaced_spectrum(problem).eigenvalues,
                         assemble_blocks(problem)[0])
    # a double shift drawn from the region's interior, where the probe alone
    # must bracket every root: on the boundary the shifted matrix has
    # defective double eigenvalues, which dense eigvals finds only to sqrt(eps)
    om1 = float(problem.omegas[0])
    eta = eta_frac / om1
    spec = make_shift(problem, eta, xi_frac * omega_lower_bound(eta, om1), "double")
    assert_same_spectrum(shifted_interlaced_spectrum(problem, spec).eigenvalues,
                         shifted_block(problem, spec))


def test_shifted_spectrum_at_eta_xi_zero_is_the_unshifted_one(prob8):
    # eta*xi = 0 leaves the characteristic polynomial g1's: a single shift,
    # and a double shift with eta = 0
    om1 = float(prob8.omegas[0])
    unshifted = interlaced_spectrum(prob8)
    for spec in (make_shift(prob8, 0.3 / om1, 0.0, "single"),
                 make_shift(prob8, 0.0, -0.5 / om1, "double")):
        shifted = shifted_interlaced_spectrum(prob8, spec)
        assert shifted.eigenvalues.tobytes() == unshifted.eigenvalues.tobytes()
        assert shifted.includes_zero and not shifted.on_boundary
        assert_same_spectrum(shifted.eigenvalues, shifted_block(prob8, spec))


def test_closed_loop_spectrum_matches_eig(prob8):
    ref = sda_solve(prob8, shifted_coefficients(prob8, default_shift(prob8, "double")),
                    SdaConfig(tol=1e-14, max_iter=100))
    oracle = np.sort(np.linalg.eigvals(prob8.quad.D - prob8.quad.C @ ref.x).real)
    mine = closed_loop_spectrum(prob8)
    assert len(mine) == prob8.n
    assert np.max(np.abs(np.sort(mine) - oracle)) < 1e-7


def test_cayley_values():
    assert cayley(1.0, 1.0) == 0.0
    assert cayley(0.0, 2.0) == -1.0
    assert cayley(3.0, 1.0) == 0.5


def test_cayley_contracts_positive_axis(rng):
    for _ in range(200):
        z = rng.uniform(1e-8, 1e6)
        gamma = rng.uniform(1e-6, 1e4)
        assert abs(cayley(z, gamma)) < 1.0


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
def test_cayley_refuses_a_gamma_outside_zero_to_inf(gamma):
    with pytest.raises(ValueError, match="positive and finite"):
        cayley(np.array([0.5, 2.0]), gamma)


def test_cayley_pole():
    with pytest.raises(PoleHit):
        cayley(-1.0, 1.0)
    with pytest.raises(PoleHit):
        cayley(np.array([2.0, -1.0]), 1.0)


def test_cayley_on_an_array_rounds_like_scalar_calls(rng):
    z = np.concatenate([[0.0, -0.0], rng.uniform(1e-8, 1e3, 200)])
    for gamma in (0.7, 3.0, 250.0):
        batched = cayley(z, gamma)
        assert batched.tobytes() == np.array([cayley(float(v), gamma) for v in z]).tobytes()
        # the rate bound's premise: over z > 0 the largest |cayley| sits at an end
        pos = z[2:]
        ends = max(abs(float(cayley(pos.min(), gamma))), abs(float(cayley(pos.max(), gamma))))
        assert np.abs(cayley(pos, gamma)).max() == ends


@pytest.mark.parametrize("n", [1, 2, 8, 64, 512])
def test_rate_bound_equals_the_max_of_scalar_cayley_calls(n):
    weights, omegas = ([1.0], [0.5]) if n == 1 else ([0.5, 0.5], [0.8, 0.4])
    problem = (build_problem(TransportParams(0.0, 1.0, np.array(weights), np.array(omegas)))
               if n <= 2 else build_problem(quadrature_params(n)))
    lams = closed_loop_spectrum(problem)[1:]
    om1 = float(problem.omegas[0])
    for spec in (None, default_shift(problem, "single"), default_shift(problem, "double"),
                 make_shift(problem, 0.3 / om1, -0.2 / om1, "double")):
        eta, xi = (spec.eta, spec.xi) if spec else (0.0, 0.0)
        quad = shifted_coefficients(problem, spec) if spec else problem.quad
        gamma = resolve_gamma(quad)
        rho1 = max(abs(float(cayley(z, gamma))) for z in np.concatenate([[eta], lams]))
        rho2 = max(abs(float(cayley(z, gamma))) for z in np.concatenate([[-xi], lams]))
        assert sda_rate_bound(problem, spec) == rho1 * rho2


def test_rate_bound_locates_only_the_two_extreme_roots(monkeypatch):
    problem = build_problem(quadrature_params(64))
    brackets = []
    finder = spectra._secular_roots

    def recording(fn, lo, *rest):
        brackets.append(len(lo))
        return finder(fn, lo, *rest)

    monkeypatch.setattr(spectra, "_secular_roots", recording)
    for spec in (None, default_shift(problem, "single"), default_shift(problem, "double")):
        brackets.clear()
        sda_rate_bound(problem, spec)
        assert brackets and max(brackets) <= 2


def test_rate_bounds(prob32):
    unshifted = sda_rate_bound(prob32)
    assert unshifted == 1.0
    single = sda_rate_bound(prob32, default_shift(prob32, "single"))
    double = sda_rate_bound(prob32, default_shift(prob32, "double"))
    assert 0.0 < double < single < 1.0


@pytest.mark.parametrize("gamma", [np.nan, np.inf, "below"])
def test_rate_bound_refuses_a_gamma_that_sda_solve_refuses(prob8, gamma):
    # the bound takes gamma through the doubling's own rule, so a gamma the
    # solver would refuse gives no rate
    if gamma == "below":
        gamma = 0.5 * float(np.max(np.diag(prob8.quad.D)))
    with pytest.raises(ValueError, match="gamma"):
        sda_solve(prob8, prob8.quad, SdaConfig(gamma=gamma))
    for spec in (None, default_shift(prob8, "double")):
        with pytest.raises(ValueError, match="gamma"):
            sda_rate_bound(prob8, spec, gamma=gamma)


def test_rate_bound_single_second_factor_is_one(prob32):
    # with a single shift the dual side keeps its zero eigenvalue, so the
    # product equals the primal factor alone; gamma is the shifted run's bound
    spec = default_shift(prob32, "single")
    quad = shifted_coefficients(prob32, spec)
    gamma = max(float(np.max(np.diag(quad.A))), float(np.max(np.diag(quad.D))))
    lams = closed_loop_spectrum(prob32)[1:]
    primal = max(abs(cayley(z, gamma)) for z in np.concatenate([[spec.eta], lams]))
    assert sda_rate_bound(prob32, spec, gamma=gamma) == pytest.approx(primal, rel=1e-12)
    # the original quadruple's bound is below it: the shifted run refuses it, and so does the rate
    below = float(np.max(np.diag(prob32.quad.D)))
    assert below < gamma
    for call in (lambda: sda_solve(prob32, quad, SdaConfig(gamma=below)),
                 lambda: sda_rate_bound(prob32, spec, gamma=below)):
        with pytest.raises(ValueError, match="below the admissible bound"):
            call()
