"""Assemble archived benchmark outputs into one markdown report.

The benchmark harness archives every table under
``benchmarks/results/<name>.txt``; this module stitches them into a
single human-readable report so a fresh run can be summarized with::

    python -m repro.analysis.report [results_dir] [-o report.md]

The per-figure index (which file belongs to which paper artefact)
mirrors DESIGN.md section 3.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

#: The repository root: the report names result directories inside it
#: relative to it, so the committed report does not depend on where the
#: checkout lives.
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Display order and titles for known result files.
_SECTIONS = [
    ("table1_techniques", "Table I — technique capability matrix"),
    ("fig2_tradeoff", "Figure 2 — security/performance trade-off space"),
    ("mi_measurement", "Section IV-B2 — mutual-information measurements"),
    ("fig9_return_time", "Figure 9 — accumulated response-time difference"),
    ("fig10_respc", "Figure 10 — Response Camouflage performance"),
    ("fig11_distributions", "Figure 11 — distribution-shaping accuracy"),
    ("fig12_reqc_speedup", "Figure 12 — ReqC vs constant-rate shaper"),
    ("fig13_bdc_astar", "Figure 13a — BDC vs TP vs FS (astar victims)"),
    ("fig13_bdc_mcf", "Figure 13b — BDC vs TP vs FS (mcf victims)"),
    ("fig14_15_covert", "Figures 14/15 — covert channel"),
    ("ga_convergence", "Figure 8 — online GA convergence"),
    ("headline_speedups", "Headline — Camouflage vs CS / TP / FS"),
    ("ablation_replenish_window", "Ablation — replenishment window size"),
    ("ablation_binning_modes", "Ablation — release-rule variants"),
    ("ablation_epoch_cs", "Ablation — epoch-rate CS vs Camouflage"),
    ("ablation_baseline_params", "Ablation — baseline parameter sweeps"),
    ("scalability_domains", "Scalability — TP vs domain count"),
    ("mesh_position", "Mesh NoC — position-dependent leakage"),
]


def generate_report(results_dir: Path) -> str:
    """Render all present result files as one markdown document."""
    try:
        shown = results_dir.resolve().relative_to(_REPO_ROOT)
    except ValueError:
        shown = results_dir
    lines: List[str] = [
        "# Camouflage reproduction — benchmark report",
        "",
        f"Assembled from `{shown}`.  Regenerate any entry with",
        "`pytest benchmarks/bench_<name>.py --benchmark-only`.",
        "",
    ]
    known = {name for name, _ in _SECTIONS}
    missing: List[str] = []
    for name, title in _SECTIONS:
        path = results_dir / f"{name}.txt"
        if not path.exists():
            missing.append(name)
            continue
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    extras = sorted(
        p.stem for p in results_dir.glob("*.txt") if p.stem not in known
    )
    for name in extras:
        lines.append(f"## (unindexed) {name}")
        lines.append("")
        lines.append("```")
        lines.append((results_dir / f"{name}.txt").read_text().rstrip())
        lines.append("```")
        lines.append("")
    if missing:
        lines.append("## Not yet run")
        lines.append("")
        for name in missing:
            lines.append(f"* `{name}` — run `benchmarks/bench_{name}.py`")
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.report",
        description="assemble benchmark results into a markdown report",
    )
    parser.add_argument("results_dir", nargs="?", type=Path,
                        default=_REPO_ROOT / "benchmarks/results")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="write to a file instead of stdout")
    args = parser.parse_args(argv)
    if not args.results_dir.is_dir():
        print(f"no results directory at {args.results_dir}",
              file=sys.stderr)
        return 1
    report = generate_report(args.results_dir)
    if args.output:
        args.output.write_text(report)
    else:
        print(report, file=sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
