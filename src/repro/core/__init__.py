"""ABNN2 core protocols: the paper's primary contribution.

* :mod:`repro.core.triplets` — dot-product / matrix triplet generation on
  1-out-of-N OT extension (Algorithm 1), with the multi-batch OT-reuse
  optimization (Section 4.1.2) and the correlated-OT share of Section
  4.1.3, applied at every batch width.
* :mod:`repro.core.matmul` — the offline+online secure matrix
  multiplication built on those triplets.
* :mod:`repro.core.relu` — the protocol's one non-linear layer: the GC
  ReLU of Algorithm 2 and the paper's optimized two-stage variant.
* :mod:`repro.core.pooling` — share-local average pooling, the only
  pooling (no garbled circuit, no communication).
* :mod:`repro.core.protocol` — end-to-end two-party QNN prediction: one
  layer walk per party, with each layer's dense/im2col/winograd form
  decided on :class:`~repro.core.protocol.LayerMeta`.
* :mod:`repro.core.offline` — the typed offline round both parties and
  the dealer produce.
* :mod:`repro.core.params` — (N, gamma) fragment-scheme selection.
"""

from repro.core.params import optimal_scheme, scheme_for
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_server,
    generate_triplets_client,
)
from repro.core.matmul import SecureMatmulServer, SecureMatmulClient
from repro.core.pooling import avgpool_share, truncate_share
from repro.core.relu import relu_layer_server, relu_layer_client
from repro.core.protocol import (
    Abnn2Server,
    Abnn2Client,
    secure_predict,
    PredictionReport,
)

__all__ = [
    "optimal_scheme",
    "scheme_for",
    "TripletConfig",
    "generate_triplets_server",
    "generate_triplets_client",
    "SecureMatmulServer",
    "SecureMatmulClient",
    "relu_layer_server",
    "relu_layer_client",
    "truncate_share",
    "avgpool_share",
    "Abnn2Server",
    "Abnn2Client",
    "secure_predict",
    "PredictionReport",
]
