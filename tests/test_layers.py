"""Every name the benchmark's tracer wraps still exists.

`perfbench/tracing.py` looks each name of its `LAYERS` table up by name
when `--trace 1` installs it, so a deleted or renamed function would only
fail there. This reads the table from that file, unchanged, and checks
each name: a module-level function of `matchcov.<layer>`, or for
"Multigraph.x" an entry of `Multigraph.__dict__`.
"""

import importlib
import importlib.util
from pathlib import Path

from matchcov import Multigraph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for layer, names in _layers().items():
        module = importlib.import_module(f"matchcov.{layer}")
        for name in names:
            if name.startswith("Multigraph."):
                found = name.split(".", 1)[1] in Multigraph.__dict__
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []
