"""RETIA: the paper's primary contribution.

The model is assembled from:

* :class:`~repro.core.rgcn.RGCNLayer` — the shared relational-GCN
  message-passing layer (entity-aggregating in the EAM, Eq. 4;
  relation-aggregating over the hyperrelation subgraph in the RAM, Eq. 1);
* :class:`~repro.core.ram.RelationAggregationModule` (Eq. 2–3);
* :class:`~repro.core.eam.EntityAggregationModule` (Eq. 5–6);
* :class:`~repro.core.tim.TwinInteractModule` (Eq. 7–10);
* :class:`~repro.core.decoder.ConvTransE` — the time-variability
  E-/R-decoders (Eq. 11–12);
* :class:`~repro.core.model.RETIA` — the full encoder/decoder with the
  paper's ablation switches; and
* :class:`~repro.core.trainer.Trainer` — general training plus online
  continuous training (Eq. 13–14, Section III-F).
"""

from repro.core.rgcn import RGCNLayer, RGCNStack
from repro.core.decoder import ConvTransE
from repro.core.tim import TwinInteractModule
from repro.core.ram import RelationAggregationModule
from repro.core.eam import EntityAggregationModule
from repro.core.model import RETIA, RETIAConfig
from repro.core.trainer import Trainer, TrainerConfig

__all__ = [
    "RGCNLayer",
    "RGCNStack",
    "ConvTransE",
    "TwinInteractModule",
    "RelationAggregationModule",
    "EntityAggregationModule",
    "RETIA",
    "RETIAConfig",
    "Trainer",
    "TrainerConfig",
]
