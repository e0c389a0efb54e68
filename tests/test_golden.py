"""Output bytes against tests/golden.json (``scripts/golden.py``).

A change that moves output bytes on purpose reruns
``python scripts/golden.py --update`` and names each digest it moved.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_manifest():
    golden = load_golden()
    want = json.loads(golden.MANIFEST.read_text())
    differ = golden.differences(golden.compute(), want)
    assert not differ, "digests that differ from tests/golden.json:\n" + "\n".join(differ)
