"""The two output scripts, run as a user runs them, pinned to the byte."""

import hashlib
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# sha256 over the tables directory, then the figures directory, each file's
# bytes in sorted-name order
SCRIPTS_DIGEST = "c09817ad2916f1551ac5e9c292b9f88c1f476861e757dfc7695a02ae99014a2a"

TABLE_FILES = [f"table{t}.csv" for t in (1, 10, 6, 7, 8, 9)]
FIGURE_FILES = sorted(
    [f"capacity_{bw}mhz_{payload}B.csv"
     for bw in (40, 80, 160) for payload in (1500, 15000)]
    + ["usage_curve.csv", "window_efficiency.csv"])


def test_scripts_write_pinned_files(tmp_path):
    digest = hashlib.sha256()
    for script, names in (("reproduce_tables.py", TABLE_FILES),
                          ("sweep_figures.py", FIGURE_FILES)):
        outdir = tmp_path / script
        done = subprocess.run([sys.executable, str(SCRIPTS / script), str(outdir)],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        files = sorted(outdir.iterdir())
        assert [f.name for f in files] == names
        for f in files:
            digest.update(f.read_bytes())
    assert digest.hexdigest() == SCRIPTS_DIGEST
