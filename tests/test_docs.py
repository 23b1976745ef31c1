"""Documentation hygiene: intra-repo links resolve and key pages exist.

The same checker runs in the CI ``docs`` job (``tools/check_doc_links.py``);
having it in tier-1 keeps broken links from landing in the first place.
"""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import check_doc_links  # noqa: E402


def _read(relpath):
    with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as handle:
        return handle.read()


def test_every_intra_repo_markdown_link_resolves():
    broken = []
    for path in check_doc_links.iter_markdown_files(REPO_ROOT):
        for target, reason in check_doc_links.check_file(path, REPO_ROOT):
            broken.append((os.path.relpath(path, REPO_ROOT), target, reason))
    assert not broken, f"broken markdown links: {broken}"


def test_link_extraction_understands_the_common_forms():
    markdown = (
        "See [a](docs/a.md) and ![img](img.png 'title') plus\n"
        "[ref]: other.md\n"
        "skip [anchor](#section), [web](https://example.com) and\n"
        "```\n[not-a-link](inside/code.md)\n```\n"
    )
    targets = check_doc_links.extract_targets(markdown)
    assert "docs/a.md" in targets and "img.png" in targets and "other.md" in targets
    assert "inside/code.md" not in targets
    checkable = [t for t in targets if check_doc_links.is_checkable(t)]
    assert "#section" not in checkable
    assert "https://example.com" not in checkable


def test_noc_doc_covers_every_topology_and_is_linked():
    noc_doc = _read("docs/noc.md")
    for kind in ("mesh", "torus", "ring", "crossbar"):
        assert f"`{kind}`" in noc_doc, f"docs/noc.md misses topology {kind!r}"
    for section in ("invariants", "Adding a topology", "noc_scaling"):
        assert section in noc_doc
    readme = _read("README.md")
    assert "docs/noc.md" in readme
    assert "docs/architecture.md" in readme
    assert "docs/performance.md" in readme


def test_architecture_doc_maps_the_noc_modules():
    architecture = _read("docs/architecture.md")
    assert "noc_traffic.py" in architecture
    assert "noc.md" in architecture


def test_performance_doc_names_every_benchmark_workload_and_bound():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    performance = _read("docs/performance.md")
    for workload in benchmark["workloads"]:
        assert f"`{workload['name']}`" in performance, \
            f"docs/performance.md misses workload {workload['name']}"
    rows = [line for line in performance.splitlines() if line.startswith("| `")]
    for metric in benchmark["end_to_end"]:
        bound = f"{metric['bound'] * 100:g} %"
        assert any(row.startswith(f"| `{metric['name']}` |") and f"| {bound} |" in row
                   for row in rows), \
            f"docs/performance.md has no table row for {metric['name']} with its {bound} bound"
