"""Body-parts tracking pipeline: Gaussian-blob body model, person tracking
and activity events from recorded color (and optional depth) sequences."""

__version__ = "0.1.0"
