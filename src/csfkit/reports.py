"""Per-order results of verify_distinct and the files the verify command
writes from them.  Only verify_distinct and `csfkit verify` load this
module, so other commands skip dataclasses; json and pathlib load only
when reports are written."""

from dataclasses import asdict, dataclass, field


@dataclass
class VerificationReport:
    order: int
    graph_class: str
    tree_count: int
    distinct_csf_count: int
    collisions: list
    elapsed_ms: int
    config: dict = field(default_factory=dict)

    def to_json_dict(self):
        doc = asdict(self)
        doc["class"] = doc.pop("graph_class")
        doc["collisions"] = [list(pair) for pair in self.collisions]
        return doc


def write_reports(reports, directory):
    """One JSON per order plus a CSV summary; returns written paths."""
    import json
    from pathlib import Path
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for rep in reports:
        p = directory / f"verify_n{rep.order:02d}.json"
        p.write_text(json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n",
                     encoding="utf-8")
        paths.append(p)
    summary = directory / "summary.csv"
    lines = ["n,trees,distinct,collisions,ms"]
    for rep in reports:
        lines.append(f"{rep.order},{rep.tree_count},{rep.distinct_csf_count},"
                     f"{len(rep.collisions)},{rep.elapsed_ms}")
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths.append(summary)
    return paths
