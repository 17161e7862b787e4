"""Memory controller: per-channel queues, command scheduling, write drain.

The controller translates queued :class:`~repro.memctrl.request.Request`
objects into legal DRAM command sequences. *Which* request to serve next is
delegated to a pluggable :class:`~repro.memctrl.schedulers.base.Scheduler`
(FCFS, FR-FCFS, PAR-BS, ATLAS, TCM); *how* to serve it — precharge/activate/
CAS sequencing, write drain, refresh — is the controller's job and identical
under every policy, which is what makes scheduler comparisons fair.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".request": ("Request",),
        ".controller": ("ChannelController",),
        ".schedulers": ("make_scheduler", "Scheduler"),
    },
)
