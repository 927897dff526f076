"""Static sharing analysis: simulation-free false-sharing verdicts.

The package's pieces form the third and fourth detection modalities next
to the dynamic shadow-memory oracle and the trained classifier:

* :mod:`repro.analysis.core` — the one sharing classifier: a columnar
  per-(line, thread) use table that classifies every cache line as
  private / read-shared / true-shared / false-shared, gates contention,
  scores significance and finds near misses, with no MESI simulation.
  It yields one report type, :class:`SharingReport`, for both front ends;
* :mod:`repro.analysis.sharing` — the trace front end: one record per
  access of a :class:`~repro.trace.access.ProgramTrace`;
* :mod:`repro.analysis.predict` — the plan front end: one record per
  (region use, line) of a symbolic
  :class:`~repro.workloads.plan.AccessPlan`, before any trace exists,
  with the objects on each line named;
* :mod:`repro.analysis.symbols` — interval-indexed map from address
  ranges to named workload objects (``objects_on_line`` / ``line_owners``);
* :mod:`repro.analysis.lint` — rule engine (FS001..FS008) turning trace
  facts and predictions into actionable findings with padding
  suggestions, each carrying a stable fingerprint;
* :mod:`repro.analysis.baseline` — committed finding baselines so CI
  fails only on *new* findings;
* :mod:`repro.analysis.validate` — line-level precision/recall of the
  predictive pass against the shadow oracle's per-line attribution;
* :mod:`repro.analysis.crosscheck` — disagreement harness fanning the
  mini-program grid through predictive analyzer, static analyzer, shadow
  oracle, and the trained tree, and reporting where they diverge.
"""

from repro.analysis.baseline import (
    BaselineDiff,
    diff_findings,
    load_baseline,
    save_baseline,
)
from repro.analysis.core import (
    SIGNIFICANCE_THRESHOLD,
    LineSharing,
    LineUse,
    NearMiss,
    SharingReport,
    ThreadProfile,
)
from repro.analysis.crosscheck import (
    CaseRecord,
    CrossChecker,
    CrossCheckReport,
    default_grid,
)
from repro.analysis.lint import Finding, SharingLinter
from repro.analysis.predict import PredictiveAnalyzer, predict_plan
from repro.analysis.sharing import StaticSharingAnalyzer, analyze_trace
from repro.analysis.symbols import Symbol, SymbolTable
from repro.analysis.validate import (
    PredictionValidator,
    ValidationReport,
)

__all__ = [
    "BaselineDiff",
    "diff_findings",
    "load_baseline",
    "save_baseline",
    "CaseRecord",
    "CrossChecker",
    "CrossCheckReport",
    "default_grid",
    "Finding",
    "SharingLinter",
    "PredictiveAnalyzer",
    "predict_plan",
    "SIGNIFICANCE_THRESHOLD",
    "LineSharing",
    "LineUse",
    "NearMiss",
    "SharingReport",
    "StaticSharingAnalyzer",
    "ThreadProfile",
    "analyze_trace",
    "Symbol",
    "SymbolTable",
    "PredictionValidator",
    "ValidationReport",
]
