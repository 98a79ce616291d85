"""Failure injection: the validation stack must catch broken machines.

A validator that never fails is worthless.  These tests corrupt
synthesised machines in targeted ways and assert the corresponding
guard — netlist reset checking, the oracle comparison, the SOC/VOM
monitors — actually fires.
"""

import copy

import pytest

from repro.api import synthesize
from repro.bench import benchmark
from repro.core.factoring import FactoredEquation
from repro.core.ssd import SsdEquation
from repro.errors import NetlistError
from repro.logic.expr import Const, Nor
from repro.netlist.fantom import build_fantom
from repro.sim.delays import loop_safe_random
from repro.sim.harness import validate_against_reference


def corrupted(result, **replacements):
    """A shallow copy of a SynthesisResult with fields swapped out."""
    clone = copy.copy(result)
    for field, value in replacements.items():
        setattr(clone, field, value)
    return clone


class TestBuildTimeDetection:
    def test_inverted_state_logic_caught_at_reset(self):
        """Inverting a next-state equation destroys the reset fixpoint;
        the netlist builder's initial-value check must refuse it."""
        result = synthesize(benchmark("lion"))
        bad_eq = result.next_state[0]
        inverted = FactoredEquation(
            name=bad_eq.name,
            cover=bad_eq.cover,
            expr=Nor([bad_eq.expr]),
            exact=bad_eq.exact,
        )
        bad = corrupted(
            result, next_state=[inverted] + result.next_state[1:]
        )
        machine = build_fantom(bad)
        with pytest.raises(NetlistError) as err:
            machine.initial_values()
        # either detection is acceptable: a wrong fixpoint or a reset
        # sweep that never converges (the inversion oscillates).
        message = str(err.value)
        assert "fixpoint" in message or "converge" in message

    def test_dead_ssd_caught_at_reset(self):
        """SSD stuck at 0 keeps VOM low forever; caught immediately."""
        result = synthesize(benchmark("lion"))
        dead = SsdEquation(
            cover=(),
            expr=Const(0),
            exact=True,
            dc_policy="unspecified",
        )
        machine = build_fantom(corrupted(result, ssd=dead))
        with pytest.raises(NetlistError) as err:
            machine.initial_values()
        assert "VOM" in str(err.value)


class TestRunTimeDetection:
    def test_spurious_excitation_caught_by_oracle(self):
        """Force a non-reset stable point to excite a state variable:
        the machine drifts out of the specified state and the oracle
        comparison must flag it the moment a walk rests there."""
        from repro.logic.expr import And, Lit, Or

        result = synthesize(benchmark("lion"))
        spec = result.spec
        table = result.table
        reset = table.reset_state or table.states[0]
        target = None
        for state, column in table.stable_points():
            if state == reset:
                continue
            code = spec.encoding.code(state)
            for n in range(spec.num_state_vars):
                if not code >> n & 1:
                    target = (state, column, n)
                    break
            if target:
                break
        assert target is not None
        state, column, n = target

        # a product term asserting exactly at the chosen stable point
        lits = []
        for i, input_name in enumerate(table.inputs):
            lits.append(Lit(input_name, negated=not column >> i & 1))
        code = spec.encoding.code(state)
        for k, var in enumerate(spec.encoding.variables):
            lits.append(Lit(var, negated=not code >> k & 1))
        poison = And(lits)

        bad_eq = result.next_state[n]
        poisoned = FactoredEquation(
            name=bad_eq.name,
            cover=bad_eq.cover,
            expr=Or([bad_eq.expr, poison]),
            exact=bad_eq.exact,
        )
        new_next = list(result.next_state)
        new_next[n] = poisoned
        machine = build_fantom(corrupted(result, next_state=new_next))
        summary = validate_against_reference(
            machine, steps=20, seeds=(0, 1),
            delays_factory=loop_safe_random,
        )
        assert not summary.all_clean

    def test_swapped_outputs_caught_by_oracle(self):
        """Swapping traffic's two output equations leaves the state
        machine intact but the latched outputs wrong."""
        result = synthesize(benchmark("traffic"))
        z1, z2 = result.outputs
        swapped_z1 = copy.copy(z1)
        swapped_z2 = copy.copy(z2)
        object.__setattr__(swapped_z1, "expr", z2.expr)
        object.__setattr__(swapped_z2, "expr", z1.expr)
        machine = build_fantom(
            corrupted(result, outputs=[swapped_z1, swapped_z2])
        )
        summary = validate_against_reference(
            machine, steps=12, seeds=(0,),
            delays_factory=loop_safe_random,
        )
        assert summary.output_errors > 0
        assert summary.state_errors == 0  # the state machine is fine

    def test_missing_hazard_hold_caught_under_skew(self):
        """The canonical ablation, as a failure-injection assertion:
        dropping the fsv correction must be *detected*, not survived."""
        from repro.api import SynthesisOptions
        from repro.sim.delays import hostile_random

        result = synthesize(
            benchmark("traffic"), SynthesisOptions(hazard_correction=False)
        )
        machine = build_fantom(result)
        summary = validate_against_reference(
            machine, steps=20, seeds=(0, 1, 2),
            delays_factory=hostile_random,
        )
        assert not summary.all_clean
