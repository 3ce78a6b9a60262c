"""The benchmark's traced CLI wraps package attributes by name.

perfbench/traced_cli.py skips a name it cannot find, so a renamed function
would read 0 in its per-layer metric without any error; this test fails
instead.
"""

import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def test_every_traced_span_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"{owner}.{attribute}"
        for owner, attribute, _, _ in traced_cli.SPANS
        if not hasattr(traced_cli._owner(owner), attribute)
    ]
    assert traced_cli.SPANS and missing == []
