"""Baseline protocols the paper compares against.

* :mod:`repro.baselines.secureml` — SecureML's (S&P'17) OT-based offline
  multiplication triplets: Gilboa decomposition, one correlated OT per
  weight *bit*, with the truncated-message optimization (Table 1/3).
* :mod:`repro.baselines.minionn` — MiniONN's (CCS'17) LHE-based offline
  triplets, reproduced on Paillier with slot packing (Table 4).
* :mod:`repro.baselines.quotient` — QUOTIENT's (CCS'19) ternary matmul:
  each {-1,0,1} weight becomes two binary correlated OTs (Table 5).
"""

from repro.baselines.secureml import (
    SecureMlConfig,
    secureml_triplets_server,
    secureml_triplets_client,
)
from repro.baselines.minionn import (
    MinionnConfig,
    minionn_triplets_server,
    minionn_triplets_client,
    minionn_predict,
)
from repro.baselines.quotient import (
    quotient_triplets_server,
    quotient_triplets_client,
    quotient_predict,
)

__all__ = [
    "SecureMlConfig",
    "secureml_triplets_server",
    "secureml_triplets_client",
    "MinionnConfig",
    "minionn_triplets_server",
    "minionn_triplets_client",
    "minionn_predict",
    "quotient_triplets_server",
    "quotient_triplets_client",
    "quotient_predict",
]
