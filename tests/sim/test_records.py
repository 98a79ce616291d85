"""The per-cycle records are immutable tuples with a stable surface.

:class:`~repro.sim.monitors.CycleReport` and
:class:`~repro.sim.simulator.NetChange` are built once per cycle and
once per traced transition, so they are tuple records.  Their fields,
immutability, ``repr`` text, pickling and wire form must read exactly
as they did when they were frozen dataclasses.
"""

import pickle

import pytest

from repro.sim.monitors import CycleReport, ValidationSummary
from repro.sim.simulator import NetChange

REPORT = dict(
    index=3,
    column=5,
    expected_state="a",
    observed_state=None,
    expected_outputs=(1, None),
    observed_outputs=(1, 0),
    output_changes={"z1": 1, "z2": 0},
    vom_rises=1,
)


def report():
    changes = dict(REPORT["output_changes"])
    return CycleReport(**{**REPORT, "output_changes": changes})


class TestCycleReportRecord:
    @pytest.mark.parametrize("field", sorted(REPORT))
    def test_assigning_a_field_raises(self, field):
        with pytest.raises(AttributeError):
            setattr(report(), field, 0)

    def test_positional_and_keyword_builds_agree(self):
        assert CycleReport(*REPORT.values()) == report()

    def test_pickle_round_trip(self):
        original = report()
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original
        assert type(copy) is CycleReport
        assert copy.state_correct is original.state_correct

    def test_repr_text_is_unchanged(self):
        assert repr(report()) == (
            "CycleReport(index=3, column=5, expected_state='a', "
            "observed_state=None, expected_outputs=(1, None), "
            "observed_outputs=(1, 0), output_changes={'z1': 1, 'z2': 0}, "
            "vom_rises=1)"
        )

    def test_wire_round_trip(self):
        original = report()
        assert CycleReport.from_dict(original.to_dict()) == original
        summary = ValidationSummary()
        summary.add(original)
        again = ValidationSummary.from_dict(summary.to_dict())
        assert again.cycles == [original]

    def test_equality_is_field_wise(self):
        assert report() == report()
        assert report() != CycleReport(**{**REPORT, "vom_rises": 2})


class TestNetChangeRecord:
    def test_fields_and_immutability(self):
        change = NetChange(1.5, "VOM", 1)
        assert (change.time, change.net, change.value) == (1.5, "VOM", 1)
        for field in ("time", "net", "value"):
            with pytest.raises(AttributeError):
                setattr(change, field, 0)

    def test_repr_text_is_unchanged(self):
        assert repr(NetChange(1.5, "VOM", 1)) == (
            "NetChange(time=1.5, net='VOM', value=1)"
        )

    def test_pickle_round_trip_and_equality(self):
        change = NetChange(time=2.0, net="G", value=0)
        copy = pickle.loads(pickle.dumps(change))
        assert copy == change and type(copy) is NetChange
        assert change != NetChange(2.0, "G", 1)
        assert hash(change) == hash(NetChange(2.0, "G", 0))
