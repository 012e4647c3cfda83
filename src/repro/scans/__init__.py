"""Scan operators.

:class:`~repro.scans.table_scan.TableScan` holds the one scan loop.
Without a sharing manager it is the vanilla operator (the paper's
"Base"): it reads its range front-to-back and releases every page with
NORMAL priority, never talking to the sharing manager.

:class:`~repro.scans.shared_scan.SharedTableScan` is the same scan handed
the database's manager — the paper's sharing scan: it registers with the
manager, may start mid-range and wrap around, reports its location every
*update interval* pages (receiving inserted throttle waits), and releases
pages with the manager-chosen priority.
"""

from repro.scans.base import ScanResult, scan_order
from repro.scans.table_scan import TableScan
from repro.scans.shared_scan import SharedTableScan

__all__ = ["ScanResult", "SharedTableScan", "TableScan", "scan_order"]
