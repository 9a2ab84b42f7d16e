import os
import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "tools" / "same_outputs.sh"
HEADER = '"epoch,train_loss,val_top1"'


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 or shutil.which("taskset") is None,
    reason="one CPU and all CPUs need 2 usable CPUs and taskset",
)
def test_a_changed_output_byte_is_named(tmp_path):
    base = tmp_path / "src"
    shutil.copytree(REPO / "src", base, ignore=shutil.ignore_patterns("__pycache__"))
    training = base / "v2vbeam" / "neuralbeam" / "training.py"
    text = training.read_text()
    assert HEADER in text
    training.write_text(text.replace(HEADER, HEADER.replace("top1", "top_1")))
    done = subprocess.run(
        ["bash", str(SCRIPT), str(base)], capture_output=True, text=True,
        env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Files base/model/history.csv and all_cpus/model/history.csv differ" in out
    assert "one_cpu/" not in out
