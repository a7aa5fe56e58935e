"""Runtime engine for executable feedback-loop megamodels.

Feedback loops are specified as megamodels (.fld): operations over runtime
models wired by control flow.  A layer diagram (.ld) places loop instances
into layers, binds their operations, and attaches triggers.  The engine
interprets the models directly, keeps them alive and editable at runtime,
and supports layered loops, interception, patches, and snapshots.
"""

from .clock import MonotonicClock, VirtualClock
from .conditions import eval_condition, parse_condition
from .diagnostics import Diagnostic, SourceSpan
from .dsl import ParseResult, parse_fld, parse_ld, serialize_fld, serialize_ld
from .loader import LoadError, build_engine, load_fld_dir
from .model import (ArchitectureDecl, Event, EventTypeRegistry, Megamodel, Signature,
                    check_architecture, check_megamodel, mape_label, signature_of)
from .reflection import (Patch, PatchStep, Snapshot, apply_patch, apply_patch_now,
                         audit_quiescence, export_snapshot, import_snapshot,
                         parse_patch, rebind_use)
from .runtime import Engine, EngineError, ModuleInstance, RunResult, RuntimeModel
from .scenario import Script, parse_script
from .triggers import TriggerSpec, match_event, parse_trigger

__all__ = [
    "ArchitectureDecl", "Diagnostic", "Engine", "EngineError", "Event",
    "EventTypeRegistry", "LoadError", "Megamodel", "ModuleInstance",
    "MonotonicClock", "ParseResult", "Patch", "PatchStep", "RunResult",
    "RuntimeModel", "Script", "Signature", "Snapshot", "SourceSpan",
    "TriggerSpec", "VirtualClock", "apply_patch", "apply_patch_now",
    "audit_quiescence", "build_engine", "check_architecture", "check_megamodel",
    "eval_condition", "export_snapshot", "import_snapshot", "load_fld_dir",
    "mape_label", "match_event", "parse_condition", "parse_fld", "parse_ld",
    "parse_patch", "parse_script", "parse_trigger", "rebind_use", "serialize_fld",
    "serialize_ld", "signature_of",
]
