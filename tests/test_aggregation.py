"""Aggregation and weighting rules, checked against hand-computed values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spykersim import aggregation as agg
from spykersim.errors import ProtocolViolation

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(*xs):
    return np.asarray(xs, dtype=np.float64)


class TestSingleBufferMerges:
    """Each merge equals its textbook formula byte for byte and returns a
    fresh array; its inputs are read-only, as message payloads are shared,
    so any write into them would raise."""

    @staticmethod
    def inputs(seed, n=3):
        rng = np.random.default_rng(seed)
        out = []
        for scale in (1.0, 1e3, 1e-3)[:n]:
            v = rng.normal(scale=scale, size=257)
            v[:3] = (0.0, -0.0, scale)
            v.setflags(write=False)
            out.append(v)
        return out

    @staticmethod
    def check(got, want, inputs):
        assert got.tobytes() == want.tobytes()
        assert not any(np.shares_memory(got, v) for v in inputs)

    @pytest.mark.parametrize("seed", range(4))
    def test_spyker_client_merge(self, seed):
        ws, wc = self.inputs(seed, 2)
        for weight, eta in ((0.0, 1.0), (0.37, 0.6), (2.7, 0.03)):
            got = agg.spyker_client_merge(ws, wc, weight, eta)
            self.check(got, ws + eta * weight * (wc - ws), (ws, wc))

    @pytest.mark.parametrize("seed", range(4))
    def test_server_merge(self, seed):
        wi, wj = self.inputs(seed, 2)
        for a_i, a_j in ((0.0, 0.0), (3.0, 11.0), (40.0, 2.5)):
            got, age = agg.server_merge(wi, a_i, wj, a_j, 0.6, 1.5)
            c = 0.6 * agg.server_pair_weight(a_i, a_j, 1.5)
            self.check(got, wi + c * (wj - wi), (wi, wj))
            assert age == (1.0 - c) * a_i + c * a_j

    @pytest.mark.parametrize("seed", range(4))
    def test_fedasync_merge(self, seed):
        wg, ws, wr = self.inputs(seed)
        for tau, d_k, d in ((0.0, 5, 5), (3.0, 7, 40), (12.0, 1, 3)):
            got = agg.fedasync_merge(wg, ws, wr, tau, d_k, d, 0.5)
            s = agg.fedasync_staleness(tau, 0.5)
            self.check(got, wg - s * (d_k / d) * (ws - wr), (wg, ws, wr))


class TestFedAvg:
    def test_weighted_mean_two_models(self):
        # (100*1 + 300*3) / 400 applied componentwise: 0.25*1 + 0.75*3 = 2.5
        out = agg.fedavg_aggregate([(vec(1.0), 100), (vec(3.0), 300)])
        assert out[0] == pytest.approx(2.5, abs=1e-12)

    def test_equal_weights_is_componentwise_mean(self):
        ws = [vec(1.0, 2.0), vec(3.0, 6.0), vec(5.0, 10.0)]
        out = agg.fedavg_aggregate([(w, 7) for w in ws])
        np.testing.assert_allclose(out, vec(3.0, 6.0), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            agg.fedavg_aggregate([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            agg.fedavg_aggregate([(vec(1.0), 1), (vec(1.0, 2.0), 1)])

    @given(
        st.lists(
            st.tuples(st.lists(finite, min_size=3, max_size=3), st.integers(1, 1000)),
            min_size=1,
            max_size=8,
        )
    )
    def test_stays_inside_componentwise_hull(self, raw):
        updates = [(vec(*w), d) for w, d in raw]
        out = agg.fedavg_aggregate(updates)
        stacked = np.stack([w for w, _ in updates])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


class TestFedAsync:
    def test_staleness_fresh_is_one(self):
        assert agg.fedasync_staleness(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_staleness_three_alpha_half(self):
        # (1+3)^-0.5 = 0.5
        assert agg.fedasync_staleness(3.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_merge_hand_value(self):
        # W=1, sent=2, returned=0, tau=3, alpha=0.5, d_k/d=1/4:
        # 1 - 0.5 * 0.25 * (2 - 0) = 0.75
        out = agg.fedasync_merge(vec(1.0), vec(2.0), vec(0.0), 3.0, 1, 4, 0.5)
        assert out[0] == pytest.approx(0.75, abs=1e-12)

    def test_merge_fresh_full_share_recovers_returned(self):
        out = agg.fedasync_merge(vec(5.0), vec(5.0), vec(2.0), 0.0, 10, 10, 0.5)
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            agg.fedasync_staleness(-1.0, 0.5)

    @given(st.floats(0, 1e4), st.floats(0.01, 2.0))
    def test_staleness_in_unit_interval(self, tau, alpha):
        s = agg.fedasync_staleness(tau, alpha)
        assert 0.0 < s <= 1.0

    @given(st.floats(0, 100), st.floats(0, 100))
    def test_staleness_monotone_decreasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert agg.fedasync_staleness(hi, 0.5) <= agg.fedasync_staleness(lo, 0.5) + 1e-15


class TestClientStalenessWeight:
    def test_dampened_fresh(self):
        assert agg.client_staleness_weight(7.0, 7.0) == pytest.approx(1.0, abs=1e-15)

    def test_dampened_gap_four(self):
        assert agg.client_staleness_weight(9.0, 5.0) == pytest.approx(0.2, abs=1e-12)

    def test_literal_is_raw_gap(self):
        assert agg.client_staleness_weight(9.0, 5.0, mode=agg.LITERAL) == 4.0

    def test_server_behind_client_is_violation(self):
        with pytest.raises(ProtocolViolation):
            agg.client_staleness_weight(4.0, 5.0)

    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    def test_dampened_in_unit_interval(self, a_sent, gap):
        w = agg.client_staleness_weight(a_sent + gap, a_sent)
        assert 0.0 < w <= 1.0


class TestSpykerClientMerge:
    def test_full_weight_full_rate_reaches_client(self):
        out = agg.spyker_client_merge(vec(0.0), vec(4.0), 1.0, 1.0)
        assert out[0] == pytest.approx(4.0, abs=1e-12)

    def test_hand_value(self):
        # 1 + 0.6 * 0.5 * (3 - 1) = 1.6
        out = agg.spyker_client_merge(vec(1.0), vec(3.0), 0.5, 0.6)
        assert out[0] == pytest.approx(1.6, abs=1e-12)

    @given(
        st.lists(finite, min_size=2, max_size=2),
        st.lists(finite, min_size=2, max_size=2),
        st.floats(0, 1),
        st.floats(0.01, 1),
    )
    def test_convex_between_endpoints(self, a, b, w, eta):
        ws, wc = vec(*a), vec(*b)
        out = agg.spyker_client_merge(ws, wc, w, eta)
        lo = np.minimum(ws, wc) - 1e-6
        hi = np.maximum(ws, wc) + 1e-6
        assert np.all(out >= lo) and np.all(out <= hi)


class TestDecay:
    def test_below_mean_passthrough(self):
        assert agg.decay(0.5, 3, 5.0, 0.05, 1e-6) == 0.5

    def test_above_mean_linear_drop(self):
        # 0.5 - 0.05 * (7 - 5) = 0.4
        assert agg.decay(0.5, 7, 5.0, 0.05, 1e-6) == pytest.approx(0.4, abs=1e-12)

    def test_floor(self):
        assert agg.decay(0.5, 1000, 5.0, 0.05, 1e-6) == 1e-6

    def test_at_mean_uses_decay_branch(self):
        assert agg.decay(0.5, 5, 5.0, 0.05, 1e-6) == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_monotone_in_update_count(self, u1, u2):
        lo, hi = sorted((u1, u2))
        d_lo = agg.decay(0.5, lo, 100.0, 0.05, 1e-6)
        d_hi = agg.decay(0.5, hi, 100.0, 0.05, 1e-6)
        assert d_hi <= d_lo + 1e-15

    @given(st.integers(0, 10_000), st.floats(0, 1000))
    def test_never_below_floor(self, u, mean):
        assert agg.decay(0.5, u, mean, 0.05, 1e-6) >= 1e-6


class TestServerPairWeight:
    def test_equal_ages_half(self):
        assert agg.server_pair_weight(50.0, 50.0, 1.5) == pytest.approx(0.5, abs=1e-15)

    def test_reference_value(self):
        # phi=1.5, A_i=100, A_j=160: a = 1.5*60/100 = 0.9,
        # sigmoid(0.9) = 0.710949502625004 (12 digits via mpmath)
        w = agg.server_pair_weight(100.0, 160.0, 1.5)
        assert w == pytest.approx(0.710949502625004, abs=1e-12)

    def test_mpmath_cross_check(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for a_i, a_j, phi in [(100, 160, 1.5), (10, 3, 1.5), (1, 400, 0.5), (200, 199, 2.0)]:
            expect = float(1 / (1 + mp.exp(-mp.mpf(phi) * (a_j - a_i) / a_i)))
            got = agg.server_pair_weight(float(a_i), float(a_j), phi)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_zero_age_denominator_clamped(self):
        w = agg.server_pair_weight(0.0, 10.0, 1.5)
        assert w == pytest.approx(1.0 / (1.0 + math.exp(-15.0)), abs=1e-15)

    def test_extreme_gap_saturates_without_overflow(self):
        assert agg.server_pair_weight(1.0, 1e9, 1.5) == pytest.approx(1.0, abs=1e-12)
        assert agg.server_pair_weight(1.0, -1e9, 1.5) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(1, 1e5), st.floats(0, 1e5), st.floats(0.1, 3))
    def test_antisymmetric_around_own_age(self, a_i, delta, phi):
        up = agg.server_pair_weight(a_i, a_i + delta, phi)
        down = agg.server_pair_weight(a_i, a_i - delta, phi)
        assert up + down == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(1, 1e5), st.floats(-1e5, 1e5), st.floats(0.1, 3))
    def test_bounded_unit_interval(self, a_i, a_j, phi):
        w = agg.server_pair_weight(a_i, a_j, phi)
        assert 0.0 <= w <= 1.0


class TestServerMerge:
    def test_reference_merge(self):
        # c = 0.6 * sigmoid(0.9); age = (1-c)*100 + c*160
        # sigmoid(0.9) = 0.710949502625004 -> c = 0.4265697015750024
        # age = 100 + 60*c = 125.59418209450014
        # weights: 1 + c*(2-1) = 1.4265697015750024
        w_new, a_new = agg.server_merge(vec(1.0), 100.0, vec(2.0), 160.0, 0.6, 1.5)
        assert a_new == pytest.approx(125.59418209450014, abs=1e-9)
        assert w_new[0] == pytest.approx(1.4265697015750024, abs=1e-12)

    def test_equal_models_fixed_point(self):
        w_new, a_new = agg.server_merge(vec(3.0, -1.0), 80.0, vec(3.0, -1.0), 80.0, 0.6, 1.5)
        np.testing.assert_array_equal(w_new, vec(3.0, -1.0))
        assert a_new == pytest.approx(80.0, abs=1e-12)

    @given(
        st.lists(finite, min_size=2, max_size=2),
        st.floats(1, 1e4),
        st.lists(finite, min_size=2, max_size=2),
        st.floats(0, 1e4),
        st.floats(0.01, 1),
        st.floats(0.1, 3),
    )
    @settings(max_examples=200)
    def test_age_moves_convexly(self, wi, a_i, wj, a_j, eta_a, phi):
        w_new, a_new = agg.server_merge(vec(*wi), a_i, vec(*wj), a_j, eta_a, phi)
        lo, hi = sorted((a_i, a_j))
        assert lo - 1e-6 <= a_new <= hi + 1e-6
        lo_w = np.minimum(vec(*wi), vec(*wj)) - 1e-6
        hi_w = np.maximum(vec(*wi), vec(*wj)) + 1e-6
        assert np.all(w_new >= lo_w) and np.all(w_new <= hi_w)

    def test_older_peer_pulls_harder_than_younger(self):
        w_up, _ = agg.server_merge(vec(0.0), 100.0, vec(1.0), 200.0, 0.6, 1.5)
        w_down, _ = agg.server_merge(vec(0.0), 100.0, vec(1.0), 50.0, 0.6, 1.5)
        assert w_up[0] > w_down[0]
