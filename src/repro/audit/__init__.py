"""Constant-time auditing of performance contracts.

Since a contract bounds *cycles per input class* symbolically, it can
answer a security question no measurement campaign can settle: are two
secret-dependent input classes **cycle-indistinguishable**?  See
:mod:`repro.audit.ct` for the audit engine; each NF declares its own
secret class sets in its :class:`~repro.nf.replay.NFSpec` descriptor.
"""

from repro.audit.ct import (
    AuditFinding,
    CycleDelta,
    PairVerdict,
    SecretClassSet,
    audit_contract,
)

__all__ = [
    "AuditFinding",
    "CycleDelta",
    "PairVerdict",
    "SecretClassSet",
    "audit_contract",
]
