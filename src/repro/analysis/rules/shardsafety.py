"""RPR102: shard-safety — shared mutable state reached from shard callables.

``StageContext.map_shards`` / ``ShardPool`` fan a callable out across
worker processes.  Any module-global or pre-existing closure cell the
callable (transitively) mutates then changes only a *copy* in the child,
and the run silently diverges from the inline one, where every shard saw
every earlier mutation — the class of bug that moved fault-injector
evaluation to the parent side.

Three hazard shapes are flagged, each with the call chain that reaches
the mutation:

* **module-global mutation** — the state pre-exists the fan-out in every
  execution mode, so it is always shared (inline) or diverging
  (processes);
* **closure-cell mutation where the cell's owning scope lexically
  encloses the shard callable** — the cell is created *before* the
  fan-out and shared by every invocation.  Cells created inside the
  shard call's own dynamic extent (a nested ``flush`` helper mutating
  its parent's locals) are per-invocation and deliberately not flagged;
* **fault-injector state** — injector draws are sequenced parent-side
  by design; a worker touching ``*.faults`` / ``injector.fire`` breaks
  the deterministic fault schedule.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.linter import Finding, Rule, register
from repro.analysis.rules.deepcache import _short, sorted_shard_bindings


def _cell_owner(program, qualname: str, var: str) -> Optional[str]:
    """Qualname of the scope owning closure cell ``var`` mutated in
    ``qualname`` (the nearest enclosing function that binds it)."""
    info = program.functions.get(qualname)
    parent = info.parent_qualname if info else None
    while parent is not None:
        parent_info = program.functions.get(parent)
        if parent_info is None:
            return None
        if (
            var in parent_info.local_names
            and var not in parent_info.declared_nonlocal
            and var not in parent_info.declared_global
        ):
            return parent
        parent = parent_info.parent_qualname
    return None


def _is_proper_ancestor(owner: str, qualname: str) -> bool:
    return qualname != owner and qualname.startswith(owner + ".")


@register
class ShardSafetyRule(Rule):
    code = "RPR102"
    name = "shard-safety"
    description = (
        "shard callable transitively mutates shared module/closure state "
        "or touches fault-injector state"
    )

    def check_program(self, analysis) -> Iterator[Finding]:
        program, effects = analysis.program, analysis.effects
        for binding in sorted_shard_bindings(program):
            hazards = []
            for effect in effects.effects_of(
                binding.fn_qualname,
                kinds=("global_mutation", "closure_mutation", "fault_state"),
            ):
                if effect.kind == "closure_mutation":
                    owner = _cell_owner(program, effect.qualname, effect.param)
                    if owner is None or not _is_proper_ancestor(
                        owner, binding.fn_qualname
                    ):
                        continue  # per-invocation cell: created inside the call
                hazards.append(effect)
            if not hazards:
                continue
            shown = hazards[:4]
            details = "; ".join(
                f"{e.kind.replace('_', '-')} {e.detail} in {_short(e.qualname)}"
                for e in shown
            )
            if len(hazards) > len(shown):
                details += f"; +{len(hazards) - len(shown)} more"
            chain = " -> ".join(
                _short(q)
                for q in effects.chain(binding.fn_qualname, hazards[0])
            )
            message = (
                f"shard callable {_short(binding.fn_qualname)} "
                f"({binding.via}) reaches shared mutable state: {details} "
                f"(via {chain}) — silently diverging under processes"
            )
            yield self.finding(binding.module.source, binding.node, message)
