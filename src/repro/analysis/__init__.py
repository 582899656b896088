"""Project-invariant static analysis and runtime lock-order detection.

Static side: an AST lint engine (:mod:`repro.analysis.core`) with eight
project rules —

========  ===========================  ==============================================
RL001     guarded-by                   annotated attributes only under their lock
RL002     lock-order                   no lock pair acquired in both orders
RL003     dtype-discipline             explicit dtypes in kernel array constructors
RL004     encoding-immutability        no ``_codes``/``_vocab`` writes outside column.py
RL005     atomic-commit                storage writes go through tmp + ``os.replace``
RL006     fingerprint-determinism      no order/time/randomness in cache-key modules
RL007     trust-boundary               no import of a code-executing deserializer
RL008     unreached-module             every module reached from an entry point
========  ===========================  ==============================================

— run via ``repro lint`` or ``python -m repro.analysis``.

Runtime side: :mod:`repro.analysis.lockwatch`, an opt-in instrumented lock
(``REPRO_LOCKWATCH=1``) recording the acquisition-order graph with cycle
detection across every lock the serving stack creates via
:func:`~repro.analysis.lockwatch.named_lock`.
"""

from .core import (
    Finding,
    LintEngine,
    LintError,
    LintReport,
    ModuleContext,
    Rule,
    all_rules,
    register,
)
from .lockwatch import (
    LockOrderError,
    LockWatchRegistry,
    WatchedLock,
    named_lock,
    registry,
)
from .reporters import render_human, render_json

__all__ = [
    "Finding",
    "LintEngine",
    "LintError",
    "LintReport",
    "LockOrderError",
    "LockWatchRegistry",
    "ModuleContext",
    "Rule",
    "WatchedLock",
    "all_rules",
    "named_lock",
    "register",
    "registry",
    "render_human",
    "render_json",
]
