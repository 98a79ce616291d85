"""Synthesis options: the knobs of the pass pipeline (paper defaults).

It lives in the pipeline package because every pass (and the stage
cache, which fingerprints options) needs it; :mod:`repro.api` re-exports
it as ``api.SynthesisOptions``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs of the pipeline (paper defaults).

    Attributes
    ----------
    minimize:
        Run Step 2 (table reduction).  The MCNC-style benchmarks are
        already minimal, but incompletely specified user tables often are
        not.
    validate_input:
        Check normal mode / strong connectivity / restability before
        synthesis.  Disable only for deliberately partial tables in
        tests.
    output_policy:
        ``stable_only`` (paper; outputs latched at VOM) or
        ``as_specified`` (honour transitional output bits).
    ssd_dc_policy:
        ``unspecified`` (don't-care outside the travelled space) or
        ``strict`` (the canonical ``y == Y`` reading).  See
        :meth:`repro.core.spec.SpecifiedMachine.ssd_function`.
    verify_assignment:
        Re-check the Tracey assignment against the USTT condition and
        fail loudly instead of producing a racy machine.
    reduce_mode:
        Step-7 reduction style for the next-state equations: ``split``
        (paper: reduce the two fsv halves separately) or ``joint``
        (minimise over the doubled space; ablation).  See
        :func:`repro.core.factoring.factor_next_state`.
    hazard_correction:
        With False, Steps 6-7 use an *empty* hazard list: ``fsv`` is the
        constant 0 and the next-state equations are the plain reduced
        excitations.  The Figure-4 analysis still runs (and is reported),
        so the result records which hazards were knowingly left in — this
        is the unprotected machine of the hazard-ablation benchmark.
    """

    minimize: bool = True
    validate_input: bool = True
    output_policy: str = "stable_only"
    ssd_dc_policy: str = "unspecified"
    verify_assignment: bool = True
    reduce_mode: str = "split"
    hazard_correction: bool = True

    def fingerprint_items(self) -> tuple[tuple[str, object], ...]:
        """Canonical ``(field, value)`` tuple for cache fingerprinting."""
        return tuple(
            (f.name, getattr(self, f.name))
            for f in dataclasses.fields(self)
        )
