#!/usr/bin/env python3
"""Regenerate the golden fixtures under tests/golden/: the rendered
figures, the ``mcm`` and ``stats`` command outputs, and the
``stability weaken`` / ``rank-swap`` JSON.

They are byte-exact output contracts: regenerate only when a style,
layout or output change is intended, and review the diff.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from mcmatrix import MCMConfig, build_mcm, render_cd_diagram, render_mcm  # noqa: E402

from conftest import (  # noqa: E402
    CLI_GOLDEN_CASES,
    STABILITY_GOLDEN_CASES,
    golden_cli_output,
    golden_matrix,
    stability_json,
)

GOLDEN = ROOT / "tests" / "golden"


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    matrix = golden_matrix()
    metadata = {"fixture": "golden", "alpha": 0.05}

    report = build_mcm(matrix, MCMConfig(alpha=0.05))
    (GOLDEN / "mcm.svg").write_bytes(render_mcm(report, format="svg", metadata=metadata))
    (GOLDEN / "mcm.html").write_bytes(render_mcm(report, format="html", metadata=metadata))
    (GOLDEN / "cd_nemenyi.svg").write_bytes(
        render_cd_diagram(matrix, 0.05, "nemenyi", metadata=metadata)
    )
    (GOLDEN / "cd_wilcoxon_holm.svg").write_bytes(
        render_cd_diagram(matrix, 0.05, "wilcoxon-holm", metadata=metadata)
    )
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CLI_GOLDEN_CASES:
            (GOLDEN / name).write_bytes(golden_cli_output(argv, Path(tmp)))
        for stem, fixture, experiment in STABILITY_GOLDEN_CASES:
            (GOLDEN / f"stability_{stem}.json").write_bytes(
                stability_json(fixture, experiment, Path(tmp))
            )
    for path in sorted(GOLDEN.iterdir()):
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
