"""Evaluation reports and the report files that hold them.

A report is one base/novel result: both accuracies, their harmonic mean and
the per-class accuracies. A report file holds one record per seed, each
tagged with the run config's hash. This module loads no numpy, so reading
report files back (the ``report`` command) stays light.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import check_settings
from .errors import ContractError
from .serialize import JsonFields, check_fields, dump_artifact, load_artifact

REPORT_KIND = "eval_report"


def harmonic_mean(base_acc: float, novel_acc: float) -> float:
    if base_acc < 0 or novel_acc < 0:
        raise ContractError(f"accuracies must be nonnegative, got {base_acc}, {novel_acc}")
    if base_acc == 0.0 or novel_acc == 0.0:
        return 0.0
    return 2.0 * base_acc * novel_acc / (base_acc + novel_acc)


@dataclass
class EvalReport(JsonFields):
    base_accuracy: float
    novel_accuracy: float
    harmonic_mean: float
    per_class_accuracy: dict
    seeds_aggregated: int = 1

    def validate(self) -> "EvalReport":
        check_settings(self, ContractError)
        expected = harmonic_mean(self.base_accuracy, self.novel_accuracy)
        if abs(expected - self.harmonic_mean) > 0.01:
            raise ContractError(
                f"harmonic mean {self.harmonic_mean:.4f} inconsistent with "
                f"({self.base_accuracy:.4f}, {self.novel_accuracy:.4f})"
            )
        return self

    @classmethod
    def from_accuracies(cls, base_accuracy: float, novel_accuracy: float,
                        per_class_accuracy: dict, seeds_aggregated: int = 1) -> "EvalReport":
        """A validated report whose harmonic mean is computed from the two accuracies."""
        return cls(
            base_accuracy=base_accuracy,
            novel_accuracy=novel_accuracy,
            harmonic_mean=harmonic_mean(base_accuracy, novel_accuracy),
            per_class_accuracy=per_class_accuracy,
            seeds_aggregated=seeds_aggregated,
        ).validate()


def save_report_records(records, path: str) -> None:
    """records: list of {config_hash, seed, report: EvalReport}."""
    dump_artifact(
        REPORT_KIND,
        {
            "records": [
                {
                    "config_hash": r["config_hash"],
                    "seed": r["seed"],
                    "report": r["report"].to_dict(),
                }
                for r in records
            ],
        },
        path,
    )


# the fields of one report record, all required
RECORD_TYPES = {"config_hash": str, "seed": int, "report": EvalReport}


def load_report_records(path: str):
    """The records of a report file; an error names the file and the record's index."""
    records = load_artifact(path, REPORT_KIND, {"records": tuple})["records"]
    return [check_fields(RECORD_TYPES, rec, f"{path}:records[{i}]", RECORD_TYPES)
            for i, rec in enumerate(records)]
