import sys
from pathlib import Path

# The benchmark imports satk from this checkout's sources, as worker.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
