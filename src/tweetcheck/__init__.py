"""Verify whether an alleged tweet was really posted.

Queries fact-checking sites, a general web search engine, and the
Politwoops deleted-tweet tracker using only the tweet body, scrapes the
returned evidence into truth ratings, and aggregates a verdict. Includes
an offline-reproducible MRR / P@1 evaluation harness over a ground-truth
corpus.
"""

__version__ = "0.1.0"
