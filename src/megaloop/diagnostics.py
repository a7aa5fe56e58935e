"""Diagnostics shared by the parsers, validators, and engine.

Rule ids used across the package (diagnostics carry one of these codes):

  E-SYNTAX          malformed document text
  E-NAME-DUP        duplicate element / instance name
  E-STATE-INITIAL   megamodel has no initial state
  E-STATE-FINAL     megamodel has no final state
  E-STATE-DESTR     destruction state that is not final
  E-OP-EXITS        operation with an empty exit list
  E-OP-ENTRIES      basic operation declaring entry compartments
  E-STEREO          unknown operation/model stereotype
  E-USAGE-KIND      unknown model-usage kind
  E-USAGE-SLOT      model usage naming an undeclared slot
  E-SLOT-STEREO     megamodel-ref slot with a non-reflection stereotype
  E-FLOW-SRC        invalid flow source endpoint
  E-FLOW-TGT        invalid flow or branch target endpoint
  E-FLOW-EXIT       operation exit without exactly one outgoing edge
  E-FLOW-INIT       initial state without exactly one outgoing edge
  E-DECISION-ELSE   decision without exactly one trailing ELSE branch
  E-DECISION-REF    decision condition naming an unknown operation/exit
  E-LAYER-ZERO      megamodel module placed in layer 0
  E-LAYER-DIR       sense/effect edge pointing at a higher layer
  E-MM-UNKNOWN      module referencing an unregistered megamodel
  E-USE-SRC         use edge from an unknown module/operation
  E-USE-TARGET      use edge to an incompatible target module
  E-USE-DUP         more than one use edge for the same operation
  E-USE-CYCLE       cyclic invocation between megamodel modules
  E-SIG-MISMATCH    complex-operation compartments incompatible with target
  E-PARAM-SLOT      complex-operation usage slot missing in the target
  E-BIND-MISSING    operation or reflection slot without a binding
  E-BINDMODEL       bind-model edge on a non megamodel-ref slot
  E-TRIG-EMPTY      trigger with neither events nor a period
  E-TRIG-UNIT       trigger period with an unknown time unit
  E-TRIG-SYNTAX     malformed trigger text
  E-TRIG-STATE      trigger initial state not an entry state of the target
  E-TRIG-EVENT      trigger event that is neither declared nor a pattern
  E-EXIT-UNKNOWN    operation implementation returned an undeclared exit
  E-REENTRY         run started on an already running instance
  E-NO-INSTANCE     unknown module instance
  E-NO-COMPONENT    unknown component id in the adaptable system
  E-MODEL-MISSING   dispatch with an unbound model slot
  E-EDIT-INVALID    invalid reflective edit, or a structural change mid-run
  E-PATCH-RESOLVE   patch step naming an unresolvable element
  E-PATCH-INVALID   patch producing an invalid architecture
  E-SNAP-PARSE      corrupt snapshot document
  E-BENCH-INFEASIBLE  benchmark combination that cannot meet its period
  E-CTL             control-protocol error
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class SourceSpan(NamedTuple):
    """1-based [start, end] region of a source document."""

    file: str
    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: SourceSpan | None = field(default=None, compare=False)
    path: str | None = None

    def __str__(self) -> str:
        where = str(self.span) if self.span else (self.path or "<unknown>")
        return f"{where}: {self.severity} {self.code}: {self.message}"


def error(code: str, message: str, *, span: SourceSpan | None = None,
          path: str | None = None) -> Diagnostic:
    return Diagnostic("error", code, message, span=span, path=path)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)
