import math

import pytest

from delaymac import energy as en
from delaymac.errors import FieldValidationError
from delaymac.params import MultiplierSpec, TechnologyProfile


class TestCapEnergy:
    def test_storage_cap(self, tech):
        assert en.cap_energy(2.2e-15, tech) == pytest.approx(3.168e-15, rel=1e-12, abs=0)

    def test_two_cells_per_bit_near_reference(self, tech):
        per_bit = 2 * en.cap_energy(2.2e-15, tech)
        reference = en.REFERENCE_5BIT_ENERGY_FJ["e_cstar"][1] * 1e-15
        assert per_bit == pytest.approx(reference, rel=0.10, abs=0)

    def test_quadratic_in_supply(self):
        low = en.cap_energy(1e-15, TechnologyProfile(v_dd=1.2))
        high = en.cap_energy(1e-15, TechnologyProfile(v_dd=2.4))
        assert high == pytest.approx(4 * low, rel=1e-12, abs=0)

    def test_rejects_nonpositive(self, tech):
        with pytest.raises(FieldValidationError):
            en.cap_energy(0.0, tech)


class TestShortCircuit:
    def test_vanishes_at_infinite_rate(self, tech):
        assert en.short_circuit_energy(1e30, tech) < 1e-30

    def test_inverse_in_rate(self, tech):
        one = en.short_circuit_energy(1e9, tech)
        half_rate = en.short_circuit_energy(0.5e9, tech)
        assert half_rate == pytest.approx(2 * one, rel=1e-12, abs=0)

    def test_exponential_blowup_per_cell(self, tech):
        r0 = 4.5e8
        base = en.short_circuit_energy(r0, tech)
        for i in range(6):
            assert en.short_circuit_energy(r0 / 2**i, tech) == 2**i * base


class TestMacEnergy:
    def test_sense_total_near_reference(self, cell, tech, spec31):
        breakdown = en.mac_energy(spec31, cell, tech)
        assert breakdown.total == pytest.approx(110e-15, rel=0.15, abs=0)
        assert breakdown.per_bit == breakdown.total / 5

    def test_components_sum_exactly(self, cell, tech, spec31):
        b = en.mac_energy(spec31, cell, tech)
        assert b.total == b.e_cstar + b.e_td1 + b.e_td2 + b.e_pu + b.e_inv

    def test_per_component_reference_values(self, cell, tech, spec31):
        b = en.mac_energy(spec31, cell, tech)
        ref = en.REFERENCE_5BIT_ENERGY_FJ
        assert b.e_cstar == pytest.approx(ref["e_cstar"][0] * 1e-15, rel=0.10, abs=0)
        assert b.e_td1 == pytest.approx(ref["e_td1"][0] * 1e-15, rel=0.10, abs=0)
        assert b.e_td2 == pytest.approx(ref["e_td2"][0] * 1e-15, rel=0.10, abs=0)
        assert b.e_pu == pytest.approx(ref["e_pu"][0] * 1e-15, rel=0.10, abs=0)
        assert b.e_inv == pytest.approx(ref["e_inv"][0] * 1e-15, rel=0.10, abs=0)

    def test_reference_rows_sum_consistency(self):
        ref = en.REFERENCE_5BIT_ENERGY_FJ
        per_bit_sum = sum(ref[k][1] for k in ("e_cstar", "e_td1", "e_td2", "e_pu", "e_inv"))
        assert per_bit_sum == pytest.approx(21.6, rel=1e-12)
        # the reported per-bit total rounds the row sum up by 0.4 fJ
        assert ref["total"][1] - per_bit_sum == pytest.approx(0.4, rel=1e-9)

    def test_sense_independent_of_weight(self, cell, tech):
        w0 = en.mac_energy(MultiplierSpec.from_weight(0, 5), cell, tech, mode="sense")
        w31 = en.mac_energy(MultiplierSpec.from_weight(31, 5), cell, tech, mode="sense")
        assert w0.total == w31.total

    def test_acceleration_full_bypass_free(self, cell, tech):
        b = en.mac_energy(MultiplierSpec.from_weight(0, 5), cell, tech, mode="acceleration")
        assert b.e_cstar == 0.0

    def test_acceleration_monotone_in_popcount(self, cell, tech):
        totals = [
            en.mac_energy(MultiplierSpec.from_weight(w, 5), cell, tech, mode="acceleration").total
            for w in (0, 1, 3, 7, 15, 31)
        ]
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    def test_full_residual_recharge_matches_sense(self, cell, tech):
        spec = MultiplierSpec.from_weight(5, 5)
        accel = en.mac_energy(spec, cell, tech, mode="acceleration", rho=1.0)
        sense = en.mac_energy(spec, cell, tech, mode="sense")
        assert accel.e_cstar == pytest.approx(sense.e_cstar, rel=1e-12, abs=0)

    def test_mode_validation(self, cell, tech, spec31):
        with pytest.raises(FieldValidationError, match="mode"):
            en.mac_energy(spec31, cell, tech, mode="burst")
        with pytest.raises(FieldValidationError, match="rho"):
            en.mac_energy(spec31, cell, tech, mode="acceleration", rho=1.5)

    def test_to_dict_schema(self, cell, tech, spec31):
        d = en.mac_energy(spec31, cell, tech).to_dict()
        assert set(d) == {
            "e_cstar", "e_td1", "e_td2", "e_pu", "e_inv", "total", "per_bit", "n_bits", "mode",
        }
