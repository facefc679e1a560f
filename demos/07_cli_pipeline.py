"""Drive the whole pipeline through the CLI, exactly as a shell session would.

Every command reads one JSON config and writes versioned artifacts into the
output directory. Running a command twice is byte-identical on one machine and
BLAS kernel, so result files can be hashed and compared between runs there.
Across BLAS kernels the datasets, the manifest and the checkpoints differ in
their last bits; the README lists which files match.
"""

import json
import os
import subprocess
import sys
import tempfile

CONFIG = {
    "kind": "run_config",
    "format_version": 1,
    "task": {
        "num_classes": 6,
        "samples_per_class": 8,
        "noise_std": 0.1,
        "latent_attributes": [
            ["color", ["color0", "color1", "color2", "color3", "color4", "color5"]],
            ["shape", ["shape0", "shape1"]],
        ],
        "informative_attributes": ["color"],
        "seed": 0,
    },
    "attributes": {"explicit": ["color", "shape"]},
    "search": {"epochs": 2, "batch_size": 16, "theta_lr": 0.05, "alpha_lr": 0.05},
    "train": {"epochs": 5, "batch_size": 16, "lr_init": 0.05},
    "layout": {"depth": 1},
    "seed": 11,
}


def run(*args):
    cmd = [sys.executable, "-m", "promptlab.cli", *args]
    print("$", " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)


with tempfile.TemporaryDirectory() as work:
    config_path = os.path.join(work, "run.json")
    CONFIG["out"] = os.path.join(work, "out")
    with open(config_path, "w") as fh:
        json.dump(CONFIG, fh, indent=2)

    run("gen-data", "--config", config_path)
    run("search-attrs", "--config", config_path)
    run("train", "--config", config_path)
    run("train", "--config", config_path, "--classic")
    run("eval", "--config", config_path)
    run("ablate", "--config", config_path, "--axis", "class_position")
    run("report", "--config", config_path)

    print("\nartifacts:")
    for name in sorted(os.listdir(CONFIG["out"])):
        print("  ", name)
