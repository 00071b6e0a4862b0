"""Workload names, sizes and the files whose bytes the checks compare.

Kept free of ``gendervec`` imports so the parent process can read it
before it knows whether the package is present.
"""

WORKLOADS = ("cli_staged", "grid_small")

# (noun_count, sentence_count) of the synthetic language per workload.
# "tiny" is the self-test scale.
SIZES = {
    "full": {"cli_staged": (2000, 150_000), "grid_small": (1000, 30_000)},
    "tiny": {"cli_staged": (1000, 20_000), "grid_small": (300, 5_000)},
}
SETUP_REPS = 3
N_PERM = 10_000
HEADLINE_CONTEXT = {"context_type": "asymmetric_backward", "window_size": 1}

# Outputs that repeated manifest replays must write byte for byte.
REPLAY_FILES = ("eval_report.json", "split_manifest.json", "records.csv", "stats.json", "model.bin")
# Staged-CLI artifact -> the replay output it must equal byte for byte.
CLI_MATCHES = {
    "eval/eval_report.json": "eval_report.json",
    "eval/records.csv": "records.csv",
    "eval/stats.json": "stats.json",
    "model.bin": "model.bin",
    "split.json": "split_manifest.json",
}
# Files every run of a workload must write identically to the first.
REPEAT_FILES = {
    "cli_staged": tuple(CLI_MATCHES),
    "grid_small": ("grid.json",),
}
