"""
Which context window carries the gender signal?
===============================================

Grid search over context direction and window size, on a synthetic
corpus where the truth is known: the article sits immediately before the
noun, so a backward window of one word should win and wider or forward
windows should fall off.
"""

import tempfile
from pathlib import Path

from gendervec import lexicon, synthetic
from gendervec.classifier import TrainConfig
from gendervec.embedding import EmbeddingConfig
from gendervec.pipeline import RunOptions, default_grid, grid_search

spec = synthetic.SyntheticSpec(
    noun_count=1000, sentence_count=100_000, seed=1, filler_count=6,
    agreement_noise=0.05, zipf_exponent=1.1,
)
workdir = Path(tempfile.mkdtemp(prefix="gendervec_demo_"))
language = synthetic.generate_synthetic_language(spec)
synthetic.write_corpus(language, workdir / "corpus.txt")
lexicon.save_lexicon(language.lexicon, workdir / "lexicon.tsv")

# Three directions, three window sizes: nine cells, a few seconds in
# total.  The corpus is read and counted once, by distance up to w=5;
# each cell sums those counts into its own matrix, and all cells share
# one train/dev/test split fixed up front.
grid = default_grid(
    ("asymmetric_backward", "symmetric", "asymmetric_forward"), (1, 2, 5)
)
result = grid_search(
    workdir / "corpus.txt",
    workdir / "lexicon.tsv",
    grid,
    EmbeddingConfig(k=50, seed=0),
    TrainConfig(),
    RunOptions(split_seed=0),
)

print("dev accuracy by cell:")
for cell in result.cells:
    label = f"{cell.context.context_type:20s} w={cell.context.window_size}"
    if cell.ok:
        print(f"  {label}  {cell.dev_accuracy:.4f}")
    else:
        print(f"  {label}  failed: {cell.error}")

best = result.best
print(f"winner: {best.context_type} w={best.window_size}")

# The split is pinned before any cell runs; its test-set digest travels
# with the result so the final evaluation can prove it saw the same
# held-out words.
print(f"test digest: {result.test_digest[:16]}...")
