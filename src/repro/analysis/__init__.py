"""Analysis utilities: Dolan–Moré performance profiles and report tables."""

from .perfprofile import PerformanceProfile, performance_profile, render_ascii
from .report import format_table
from .breakdown import Breakdown, breakdown, render_breakdowns, COST_CLASSES

__all__ = [
    "PerformanceProfile",
    "performance_profile",
    "render_ascii",
    "format_table",
    "Breakdown",
    "breakdown",
    "render_breakdowns",
    "COST_CLASSES",
]
