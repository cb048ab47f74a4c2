"""What a fresh ``repro`` process imports.

Every figure is regenerated by a new process, so start-up is paid on
each CLI call, perfbench pass and CI step.  ``scipy.stats`` alone is
about two thirds of that start-up and of its resident memory, and only
``mean_confidence_interval`` uses it, which imports it on first call.
The test starts a clean interpreter, drives the CLI the way a user
does, and asserts on the module set, never on a time.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import json
    import sys

    from repro import cli

    codes = [cli.main(["list"]),
             cli.main(["run", "fig6", "--scale", "0.05", "--seed", "1",
                       "--no-cache"])]
    loaded_by_run = "scipy" in sys.modules

    from repro.stats import mean_confidence_interval
    mean_confidence_interval([1.0, 2.0, 4.0])
    print(json.dumps({"codes": codes, "loaded_by_run": loaded_by_run,
                      "loaded_by_call": "scipy" in sys.modules}))
""")


def test_cli_runs_without_importing_scipy(tmp_path):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    assert found["codes"] == [0, 0]
    assert not found["loaded_by_run"], \
        "a module on the CLI path imports scipy at module level"
    # The probe sees an import when one happens.
    assert found["loaded_by_call"]
