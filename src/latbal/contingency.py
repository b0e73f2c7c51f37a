"""Contingency tables over label combinations.

The table is dense over all 2^m cells, indexed with attribute 0 as the
least significant bit (see bits_string).  Cell membership is one row
order, CSR-style: the row indices grouped by cell, in dataset order within a
cell, so construction is deterministic.  Cell c's rows are
order[start[c]:start[c] + counts[c]], where start = cumsum(counts) - counts.
Cell indices come in cell_dtype(2^m), OR-ed from the uint8 label columns,
and are sorted in that dtype, so no n x m or n-long int64 copy is made.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LatentDataset
from .dataio import atomic_write_text, csv_text


@dataclass
class ContingencyTable:
    m: int
    counts: np.ndarray            # 2^m cell counts
    order: np.ndarray             # row indices grouped by cell, dataset order in a cell

    @property
    def n_cells(self) -> int:
        return 1 << self.m


@dataclass
class ImbalanceStats:
    min_cell: int
    max_cell: int
    nonempty_cells: int
    max_min_ratio: Optional[float]   # max/min over non-empty cells; None if table empty
    chi_square_vs_uniform: float     # expected count N/2^m for every cell


def cell_indices(dataset: LatentDataset, rows=None) -> np.ndarray:
    """Cell index, in cell_dtype(2^m), per dataset row or per row of ``rows`` (in order)."""
    labels = dataset.labels if rows is None else dataset.labels[rows]
    cells = np.zeros(labels.shape[0], dtype=cell_dtype(1 << dataset.m))
    for k in range(dataset.m):
        cells |= labels[:, k].astype(cells.dtype) << k
    return cells


def cell_dtype(n_cells: int) -> np.dtype:
    """Narrowest integer dtype that holds every cell index below n_cells.

    numpy's stable sort is a radix sort on it for up to 2^16 cells (m <= 16).
    """
    return np.min_scalar_type(n_cells - 1)


def build_contingency(dataset: LatentDataset) -> ContingencyTable:
    m = dataset.m
    n_cells = 1 << m
    cells = cell_indices(dataset)
    counts = np.bincount(cells, minlength=n_cells)
    # stable sort groups rows by cell while preserving row order within cells
    order = np.argsort(cells, kind="stable")
    return ContingencyTable(m=m, counts=counts, order=order)


def imbalance_stats(table: ContingencyTable) -> ImbalanceStats:
    counts = table.counts
    total = int(counts.sum())
    nonempty = counts[counts > 0]
    if total == 0:
        return ImbalanceStats(0, 0, 0, None, 0.0)
    expected = total / table.n_cells
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return ImbalanceStats(
        min_cell=int(counts.min()),
        max_cell=int(counts.max()),
        nonempty_cells=int(nonempty.size),
        max_min_ratio=float(nonempty.max() / nonempty.min()),
        chi_square_vs_uniform=chi2,
    )


def bits_string(index: int, m: int) -> str:
    """Render a cell index as a 0/1 string, attribute 0 first."""
    return format(index, f"0{m}b")[::-1]


def write_contingency_csv(table: ContingencyTable, path: str) -> None:
    rows = ((c, bits_string(c, table.m), n) for c, n in enumerate(table.counts.tolist()))
    atomic_write_text(path, csv_text(itertools.chain([("cell_index", "bits", "count")], rows)))
