"""Statistical sampling and FIT/EIT/EPF metric tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.presets import GEFORCE_GTX_480, HD_RADEON_7970
from repro.arch.structures import LOCAL_MEMORY, REGISTER_FILE
from repro.errors import ConfigError
from repro.reliability.campaign import run_cell
from repro.reliability.epf import (
    RAW_FIT_PER_BIT,
    compute_epf,
    execution_time_s,
    executions_in_time,
    structure_fit,
)
from repro.reliability.sampling import margin_of_error, required_samples, z_score
from repro.spec import CampaignSpec


class TestSamplingFormula:
    def test_paper_footnote_2000_samples(self):
        """Footnote 4: 2,000 injections -> 2.88% margin at 99% confidence."""
        assert margin_of_error(2000, confidence=0.99) == pytest.approx(
            0.0288, abs=2e-4
        )

    def test_required_samples_roundtrip(self):
        n = required_samples(0.0288, confidence=0.99)
        assert 1990 <= n <= 2010

    def test_finite_population_reduces_margin(self):
        infinite = margin_of_error(1000)
        finite = margin_of_error(1000, population=2000)
        assert finite < infinite

    def test_full_population_zero_margin(self):
        assert margin_of_error(500, population=500) == pytest.approx(0.0)

    def test_oversampling_rejected(self):
        with pytest.raises(ConfigError):
            margin_of_error(100, population=50)

    def test_z_score_values(self):
        assert z_score(0.95) == pytest.approx(1.9600, abs=1e-3)
        assert z_score(0.99) == pytest.approx(2.5758, abs=1e-3)

    #: confidence -> (z, margin at 2000 samples, same at N = 10**6,
    #: samples for 2.88%, same at N = 10**5), from scipy.stats.norm.ppf.
    #: Exact floats: stored AVF margins must stay bit for bit.
    EXACT = {
        0.9: (1.6448536269514722, 0.01839002261450286, 0.018371632573489113,
              816, 809),
        0.95: (1.959963984540054, 0.02191306351441454, 0.021891150428976068,
               1158, 1145),
        0.99: (2.5758293035489004, 0.028798647105856407, 0.028769848429937458,
               2000, 1961),
    }

    @pytest.mark.parametrize("confidence", sorted(EXACT))
    def test_exact_values(self, confidence):
        assert (
            z_score(confidence),
            margin_of_error(2000, confidence=confidence),
            margin_of_error(2000, population=10**6, confidence=confidence),
            required_samples(0.0288, confidence=confidence),
            required_samples(0.0288, population=10**5, confidence=confidence),
        ) == self.EXACT[confidence]

    def test_bad_confidence(self):
        with pytest.raises(ConfigError):
            z_score(1.5)

    def test_bad_margin(self):
        with pytest.raises(ConfigError):
            required_samples(0.0)

    @given(st.integers(min_value=10, max_value=100_000))
    def test_margin_decreases_with_samples(self, n):
        assert margin_of_error(n + 10) < margin_of_error(n)

    @given(st.floats(min_value=0.005, max_value=0.2),
           st.sampled_from([0.9, 0.95, 0.99]))
    def test_roundtrip_property(self, margin, confidence):
        n = required_samples(margin, confidence=confidence)
        achieved = margin_of_error(n, confidence=confidence)
        assert achieved <= margin * 1.001


class TestSampleSizeConvergence:
    """FI estimates converge on a large-sample reference within the
    theoretical margin: the justification for a fixed campaign size."""

    REFERENCE = 400

    def test_estimates_within_combined_margin_of_reference(self):
        spec = CampaignSpec(gpus=("fx5600",), workloads=("histogram",),
                            scale="tiny", seed=99, structures=(REGISTER_FILE,))
        reference = run_cell(spec.replace(samples=self.REFERENCE)).avf_fi(
            REGISTER_FILE)
        bound = margin_of_error(self.REFERENCE, confidence=0.99)
        for n in (25, 50, 100, 200):
            estimate = run_cell(spec.replace(samples=n)).avf_fi(REGISTER_FILE)
            assert abs(estimate - reference) <= \
                margin_of_error(n, confidence=0.99) + bound, n


class TestFitEpf:
    def test_execution_time(self):
        # 1.401 GHz, 1401 cycles -> 1 microsecond.
        assert execution_time_s(GEFORCE_GTX_480, 1401) == pytest.approx(1e-6)

    def test_eit(self):
        eit = executions_in_time(GEFORCE_GTX_480, 1401)
        assert eit == pytest.approx(3.6e12 / 1e-6, rel=1e-6)

    def test_zero_cycles_rejected(self):
        with pytest.raises(ConfigError):
            executions_in_time(GEFORCE_GTX_480, 0)

    def test_structure_fit_scales_with_avf(self):
        half = structure_fit(GEFORCE_GTX_480, REGISTER_FILE, 0.5)
        full = structure_fit(GEFORCE_GTX_480, REGISTER_FILE, 1.0)
        assert half == pytest.approx(full / 2)
        assert full == pytest.approx(
            RAW_FIT_PER_BIT * GEFORCE_GTX_480.register_file_bits
        )

    def test_bad_avf_rejected(self):
        with pytest.raises(ConfigError):
            structure_fit(GEFORCE_GTX_480, REGISTER_FILE, 1.5)

    def test_compute_epf_combines_structures(self):
        result = compute_epf(
            GEFORCE_GTX_480, "matrixMul", cycles=10_000,
            avf_by_structure={REGISTER_FILE: 0.1, LOCAL_MEMORY: 0.05},
        )
        assert result.fit_gpu == pytest.approx(
            sum(result.fit_by_structure.values())
        )
        assert result.epf == pytest.approx(result.eit / result.fit_gpu)
        assert result.gpu == GEFORCE_GTX_480.name

    def test_epf_zero_avf_is_infinite(self):
        result = compute_epf(
            GEFORCE_GTX_480, "x", cycles=1000,
            avf_by_structure={REGISTER_FILE: 0.0},
        )
        assert math.isinf(result.epf)

    def test_epf_in_paper_ballpark(self):
        """AVF ~10% and microsecond kernels land within 10^12..10^17."""
        for config in (GEFORCE_GTX_480, HD_RADEON_7970):
            result = compute_epf(
                config, "x", cycles=50_000,
                avf_by_structure={REGISTER_FILE: 0.10, LOCAL_MEMORY: 0.05},
            )
            assert 1e11 < result.epf < 1e18

    def test_raw_rate_inverse_on_epf(self):
        low = compute_epf(GEFORCE_GTX_480, "x", 1000,
                          {REGISTER_FILE: 0.1}, raw_fit_per_bit=1e-4)
        high = compute_epf(GEFORCE_GTX_480, "x", 1000,
                           {REGISTER_FILE: 0.1}, raw_fit_per_bit=1e-3)
        assert low.epf == pytest.approx(high.epf * 10)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_eit_monotonic_in_cycles(self, cycles):
        fast = executions_in_time(GEFORCE_GTX_480, cycles)
        slow = executions_in_time(GEFORCE_GTX_480, cycles + 1)
        assert slow < fast
