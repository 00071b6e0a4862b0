"""
A synthetic agreement language end to end
=========================================

Real gendered corpora are large and encumbered, so the package ships a
generator for a toy language with the same skeleton: every sentence is
``filler* article noun filler*`` and the article agrees with the noun's
class.  This script generates one, runs the full pipeline on it, and
renders the report files.
"""

import tempfile
from pathlib import Path

from gendervec import lexicon, report, synthetic
from gendervec.classifier import TrainConfig, errors_by_entropy
from gendervec.cooccurrence import ContextConfig
from gendervec.embedding import EmbeddingConfig
from gendervec.pipeline import project_2d, run_experiment

# A light dose of agreement noise and a few ambiguous nouns keep the
# problem from being trivially separable, like real text.
spec = synthetic.SyntheticSpec(
    noun_count=1000,
    sentence_count=100_000,
    seed=0,
    filler_count=6,
    agreement_noise=0.10,
    ambiguous_fraction=0.05,
    zipf_exponent=1.1,
)
workdir = Path(tempfile.mkdtemp(prefix="gendervec_demo_"))
language = synthetic.generate_synthetic_language(spec)
synthetic.write_corpus(language, workdir / "corpus.txt")
lexicon.save_lexicon(language.lexicon, workdir / "lexicon.tsv")
counts = language.lexicon.counts_by_code()
print(f"generated {len(language.sentences)} sentences, "
      f"{counts['u']} uter / {counts['n']} neuter nouns")

# One call drives ingest, embed, label, split, train and the final
# held-out evaluation.
result = run_experiment(
    workdir / "corpus.txt",
    workdir / "lexicon.tsv",
    ContextConfig(context_type="asymmetric_backward", window_size=1),
    EmbeddingConfig(k=50, seed=0),
    TrainConfig(),
    split_seed=0,
    n_perm=2_000,
    stats_seed=0,
)

rep = result.evaluation.report
print(f"test accuracy   {rep.accuracy:.4f}  (majority baseline {rep.baseline_accuracy:.4f})")
errors = errors_by_entropy(result.evaluation.predictions)
print(f"test words      {rep.n}, errors {len(errors)}")

# The classifier is least sure exactly where it is wrong: mean output
# entropy of the errors sits above that of the correct predictions.
analysis = result.evaluation.analysis
print(f"entropy correct {analysis.mean_entropy_correct:.3f}")
if analysis.mean_entropy_errors is not None:
    print(f"entropy errors  {analysis.mean_entropy_errors:.3f}")
if analysis.entropy_permutation is not None:
    print(f"permutation p   {analysis.entropy_permutation.p:.4f}")

# Everything worth looking at is emitted as CSV + standalone SVG.
out = workdir / "report"
paths = report.emit_report(
    out,
    result.evaluation.predictions,
    rep,
    analysis,
    projection=project_2d(result.bundle.test.vectors),
    decile_report=result.decile_report,
)
print(f"report files in {out}:")
for name in sorted(p.name for p in out.iterdir()):
    print(f"  {name}")
