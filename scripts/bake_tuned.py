"""Bake scripts/tuned_steps.json into repro/experiments/tuned.py.

Synchronous winners apply to all architectures (statistical efficiency
is architecture-independent); asynchronous winners are per-architecture.
Cells the probe could not converge keep no entry (the runner falls back
to the task/strategy default and the tables report them as inf).
"""

from __future__ import annotations

import json
from pathlib import Path

SRC = Path("scripts/tuned_steps.json")
DST = Path("src/repro/experiments/tuned.py")

HEADER = '''"""Tuned step sizes per configuration at the default scale.

Produced by the paper's grid-search protocol (Section IV-A) run via
``scripts/probe_steps.py`` (regenerate with that script followed by
``scripts/bake_tuned.py``).

Keys are ``(task, dataset, strategy, architecture)``; architecture
``"*"`` applies to all architectures (synchronous runs: the statistical
efficiency — and hence the best step — is architecture-independent).
Configurations absent from the table fall back to the (task, strategy)
defaults in :mod:`repro.sgd.config`.
"""

from __future__ import annotations

__all__ = ["TUNED_STEPS", "lookup_step"]

#: (task, dataset, strategy, architecture) -> step size.
TUNED_STEPS: dict[tuple[str, str, str, str], float] = {
'''

FOOTER = '''}


def lookup_step(
    task: str, dataset: str, strategy: str, architecture: str
) -> float | None:
    """Resolve a tuned step with exact-arch > wildcard precedence."""
    exact = TUNED_STEPS.get((task, dataset, strategy, architecture))
    if exact is not None:
        return exact
    return TUNED_STEPS.get((task, dataset, strategy, "*"))
'''


def main() -> None:
    data = json.loads(SRC.read_text())
    lines: list[str] = []
    seen_sync: set[tuple[str, str]] = set()
    for key, val in sorted(data.items()):
        task, ds, strategy, arch = key.split("/")
        step = val.get("step")
        if step is None:
            lines.append(
                f"    # {task}/{ds}/{strategy}/{arch}: no grid point converged "
                f"(reported as inf)\n"
            )
            continue
        if strategy == "synchronous":
            if (task, ds) in seen_sync:
                continue
            seen_sync.add((task, ds))
            arch_key = "*"
        else:
            arch_key = arch
        lines.append(
            f'    ("{task}", "{ds}", "{strategy}", "{arch_key}"): {float(step)},'
            f"  # epochs={val.get('epochs')}\n"
        )
    DST.write_text(HEADER + "".join(lines) + FOOTER, encoding="utf-8")
    print(f"wrote {DST} with {len(lines)} entries")


if __name__ == "__main__":
    main()
