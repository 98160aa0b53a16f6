"""RPR104: transitive RNG / wall-clock reach into cached transforms.

RPR001/RPR002 flag the *site* of an unseeded draw or host-clock read;
an operationally justified site gets a visible ``# repro: noqa[RPR002]``
and life goes on.  But the justification ("never enters a canonical event log") is a
property of the *callers*, not the site — and the moment such a site
becomes reachable from a transform whose output the stage cache
replays, the cached bytes embed entropy or host time and warm reruns
stop being byte-identical.

This rule walks every cache binding and reports any ``rng`` or
``wall_clock`` effect in the transform's transitive summary, with the
call chain from the binding down to the offending site.  Seeded,
locally held generators never appear in the effect lattice, so the
repo's ``rng = random.Random(config.seed)`` idiom stays invisible.
Sites and reach are classified by the same function
(:func:`repro.analysis.sites.classify_call`), so what RPR001/RPR002 flag
is exactly what can propagate here.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.linter import Finding, Rule, register
from repro.analysis.rules.deepcache import _short, sorted_cache_bindings


@register
class TransitiveDeterminismRule(Rule):
    code = "RPR104"
    name = "deep-determinism"
    description = (
        "cached transform transitively reaches an unseeded RNG draw or a "
        "wall-clock read"
    )

    def check_program(self, analysis) -> Iterator[Finding]:
        program, effects = analysis.program, analysis.effects
        for binding in sorted_cache_bindings(program):
            for effect in effects.effects_of(
                binding.fn_qualname, kinds=("rng", "wall_clock")
            ):
                chain = " -> ".join(
                    _short(q)
                    for q in effects.chain(binding.fn_qualname, effect)
                )
                message = (
                    f"{binding.kind} {binding.label} transform "
                    f"{_short(binding.fn_qualname)} reaches {effect.detail} "
                    f"in {_short(effect.qualname)} (via {chain}) — cached "
                    "output embeds non-reproducible state"
                )
                yield self.finding(binding.module.source, binding.node, message)
