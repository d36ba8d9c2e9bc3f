"""Exact invariants of generically reduced curve germs and equisingularity
verdicts for one-parameter flat families."""
