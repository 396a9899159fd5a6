import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# The CLI and service tests start Python processes that import pkisn too.
_src = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_src, os.environ.get("PYTHONPATH")) if p)
