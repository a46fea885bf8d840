"""Genome-distilled survival modeling over whole-slide patch bags.

During training the model reconstructs per-category gene expression from
the bag, and the resulting token/patch association scores steer a
hyper-attention survival head. Inference needs only the bag.
"""

__version__ = "0.1.0"
