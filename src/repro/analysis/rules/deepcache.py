"""RPR101: cache-key completeness, through the call graph.

The stage cache replays a transform's output whenever its key matches,
so the key must fold in *every* config attribute that can change the
output — including reads buried in helpers the transform calls, the
shape PR 3 and PR 6 hit in practice: the read moves into a helper (or a
helper's helper), no single function shows both it and the
``cache_params`` declaration, and the stale-key hazard remains.

For every cache binding (stage registration, ``transforms={...}`` dict,
or ``map_shards(..., cache_keys=...)`` fan-out) the rule computes the
transform's *transitive* config read set from the effect summaries and
checks each attribute against the declared ``cache_params`` coverage —
``repr(replace(config, workers=1))`` covers everything except
``workers``, ``config.seed`` covers ``seed``, and fingerprint helpers
are resolved through the call graph.  Anything read but not folded is a
finding, reported with the call chain that reaches the read.  A
registration that declares no ``cache_params`` at all (or ``None``)
covers nothing, so any config read under it is reported — the case the
retired RPR005 looked for in the transform's own body only; a
declaration that names no config (``{'pipeline': 'v1'}``) covers nothing
either.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.analysis.linter import Finding, Rule, register
from repro.analysis.effects import analyze_cache_params


def _short(qualname: str) -> str:
    return qualname[6:] if qualname.startswith("repro.") else qualname


def sorted_cache_bindings(program) -> List[object]:
    return sorted(
        program.cache_bindings,
        key=lambda b: (str(b.module.path), b.node.lineno, b.label, b.fn_qualname),
    )


def sorted_shard_bindings(program) -> List[object]:
    return sorted(
        program.shard_bindings,
        key=lambda b: (str(b.module.path), b.node.lineno, b.fn_qualname),
    )


@register
class InterproceduralCacheKeyRule(Rule):
    code = "RPR101"
    name = "deep-cache-key"
    description = (
        "cached transform transitively reads config attributes its "
        "cache_params does not fold into the cache key"
    )

    def check_program(self, analysis) -> Iterator[Finding]:
        program, effects = analysis.program, analysis.effects
        for binding in sorted_cache_bindings(program):
            reads = effects.config_reads(binding.fn_qualname)
            if not reads:
                continue
            coverage = analyze_cache_params(
                binding.cache_expr, binding.module, program
            )
            missing = sorted(
                attr for attr in reads if not coverage.covers(attr)
            )
            if not missing:
                continue
            witness = reads[missing[0]]
            chain = " -> ".join(
                _short(q)
                for q in effects.chain(binding.fn_qualname, witness)
            )
            attrs = ", ".join(f".{attr}" for attr in missing)
            if binding.declared:
                message = (
                    f"{binding.kind} {binding.label} transform "
                    f"{_short(binding.fn_qualname)} reaches config reads its "
                    f"cache_params does not fold in: {attrs} "
                    f"(e.g. via {chain}) — stale cache hits when they change"
                )
            else:
                message = (
                    f"{binding.kind} {binding.label} transform "
                    f"{_short(binding.fn_qualname)} transitively reads config "
                    f"({attrs}, e.g. via {chain}) but declares no "
                    "cache_params — its cache key ignores configuration"
                )
            yield self.finding(binding.module.source, binding.node, message)
