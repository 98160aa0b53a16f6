"""RPR001: every random number must come from an explicitly seeded stream.

The determinism contract (sequential == parallel == warm-cache ==
fault-injected, byte for byte) dies the moment any code path draws from
an unseeded or process-global RNG.  Three shapes are flagged:

* **unseeded construction** — ``np.random.default_rng()`` or
  ``random.Random()`` with no arguments seeds from OS entropy;
* **process-global streams** — module-level calls like
  ``random.random()``, ``random.shuffle(...)``, ``np.random.normal(...)``
  share one hidden state across the whole process, so any concurrency
  (or an unrelated import drawing from it) reorders every stream;
* **entropy sources** — ``random.SystemRandom`` / ``os.urandom`` can
  never be seeded at all.

Seeded construction (``default_rng(cfg.seed)``, ``Random(0)``) and calls
on locally-held generator objects (``rng.normal(...)``) are fine — the
rule only fires on the ``random`` / ``numpy.random`` modules themselves.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.linter import Finding, ModuleSource, Rule, register, resolved_calls
from repro.analysis.sites import classify_call


@register
class UnseededRngRule(Rule):
    code = "RPR001"
    name = "unseeded-rng"
    description = (
        "RNG constructed without a seed, or a draw from the process-global "
        "random / numpy.random stream"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node, name in resolved_calls(module):
            hazard = classify_call(name, bool(node.args or node.keywords))
            if hazard is not None and hazard[0] == "rng":
                yield self.finding(
                    module,
                    node,
                    f"{hazard[1]}; draw from a Generator/Random seeded from "
                    "the run seed (or thread the caller's rng) instead",
                )
