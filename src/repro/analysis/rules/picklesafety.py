"""RPR103: unpicklable or unsafe captures crossing the process boundary.

A shard callable dispatched under ``executor="process"`` is pickled
into the worker.  Three shapes run fine inline (so tests pass) and then
detonate — or worse, *silently misbehave* — the moment the config flips
to processes:

* **closures and lambdas** — anything defined inside a function does
  not pickle at all;
* **generator functions** — the returned generator cannot cross back;
* **captured OS handles** — an open file, sqlite connection, or lock
  reached through a module-global or closure cell.  Files and
  connections fail to pickle; locks are subtler and nastier: the child
  re-imports the module and gets a *fresh* lock, so the mutual
  exclusion the code relies on quietly stops excluding anything.

The rule checks every ``map_shards`` / ``ShardPool.map`` binding,
reporting transitive handle captures with the function that performs
them.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.linter import Finding, Rule, register
from repro.analysis.rules.deepcache import _short, sorted_shard_bindings


@register
class ProcessBoundaryRule(Rule):
    code = "RPR103"
    name = "process-boundary"
    description = (
        "shard callable (or state it captures) cannot safely cross the "
        "worker process boundary"
    )

    def check_program(self, analysis) -> Iterator[Finding]:
        program, effects = analysis.program, analysis.effects
        for binding in sorted_shard_bindings(program):
            info = program.functions.get(binding.fn_qualname)
            problems = []
            if info is not None and info.is_nested:
                problems.append(
                    "is defined inside a function — closures/lambdas do not "
                    "pickle under the process executor"
                )
            if info is not None and info.is_generator:
                problems.append(
                    "is a generator function — its lazy results cannot be "
                    "returned across the process boundary"
                )
            for effect in effects.effects_of(
                binding.fn_qualname, kinds=("handle_capture",)
            ):
                problems.append(
                    f"{effect.detail} in {_short(effect.qualname)}"
                    + (
                        " — each worker silently gets a fresh lock"
                        if effect.param == "lock"
                        else " — handles do not pickle"
                    )
                )
            if not problems:
                continue
            message = (
                f"shard callable {_short(binding.fn_qualname)} "
                f"({binding.via}) " + "; ".join(problems)
            )
            yield self.finding(binding.module.source, binding.node, message)
