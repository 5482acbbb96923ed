"""Address-Free Fragmentation — the paper's RETRI case study.

* :mod:`repro.aff.wire` — bit-packed fragment formats.
* :mod:`repro.aff.fragmenter` / :mod:`repro.aff.reassembler` — the pure
  protocol halves.
* :mod:`repro.aff.driver` — binds them to a radio (the paper's Linux
  driver, reproduced).
* :mod:`repro.aff.instrumented` — the ground-truth receiver used to
  measure collision losses (Section 5.1's methodology).
* :mod:`repro.aff.static_frag` — the IP-style statically-addressed
  baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .driver import AffDriver, AffDriverStats
    from .fragmenter import Fragmenter, FragmentPlan
    from .instrumented import InstrumentedCounts, InstrumentedReceiver
    from .reassembler import Reassembler, ReassemblerStats
    from .static_frag import StaticCodec, StaticData, StaticDriver, StaticIntro
    from .wire import (
        DataFragment,
        FragmentCodec,
        IntroFragment,
        KIND_DATA,
        KIND_INTRO,
        KIND_NOTIFY,
        MalformedFragmentError,
        NotifyFragment,
    )

__all__ = [
    "AffDriver",
    "AffDriverStats",
    "DataFragment",
    "FragmentCodec",
    "Fragmenter",
    "FragmentPlan",
    "InstrumentedCounts",
    "InstrumentedReceiver",
    "IntroFragment",
    "KIND_DATA",
    "KIND_INTRO",
    "KIND_NOTIFY",
    "MalformedFragmentError",
    "NotifyFragment",
    "Reassembler",
    "ReassemblerStats",
    "StaticCodec",
    "StaticData",
    "StaticDriver",
    "StaticIntro",
]

export_lazily(
    __name__,
    {
        ".driver": ("AffDriver", "AffDriverStats"),
        ".fragmenter": ("Fragmenter", "FragmentPlan"),
        ".instrumented": ("InstrumentedCounts", "InstrumentedReceiver"),
        ".reassembler": ("Reassembler", "ReassemblerStats"),
        ".static_frag": (
            "StaticCodec", "StaticData", "StaticDriver", "StaticIntro",
        ),
        ".wire": (
            "DataFragment", "FragmentCodec", "IntroFragment", "KIND_DATA",
            "KIND_INTRO", "KIND_NOTIFY", "MalformedFragmentError",
            "NotifyFragment",
        ),
    },
)
