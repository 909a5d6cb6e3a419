"""Verify whether an alleged tweet was really posted.

Queries fact-checking sites, a general web search engine, and the
Politwoops deleted-tweet tracker using only the tweet body, scrapes the
returned evidence into truth ratings, and aggregates a verdict. Includes
an offline-reproducible MRR / P@1 evaluation harness over a ground-truth
corpus.
"""

from .adapters import (
    EngineSettings,
    PolitwoopsHit,
    default_engine_settings,
    match_politwoops,
    normalize_text,
    ranked_search,
    search_politwoops,
    search_reuters,
    search_snopes,
    search_web,
)
from .config import AppConfig, build_config
from .dataset import (
    GroundTruthRecord,
    load_dataset,
    load_shipped_dataset,
    serialize_dataset,
    shipped_dataset_path,
    validate_dataset,
)
from .errors import (
    CaptchaDetected,
    CorruptFixture,
    EmptyDatasetError,
    FixtureMiss,
    FormatError,
    MissingFixtures,
    NetworkError,
    ParseError,
    TweetCheckError,
    ValidationError,
)
from .evaluation import (
    EVAL_SOURCES,
    EngineReport,
    QueryOutcome,
    evaluate_engine,
    reciprocal_rank,
    render_report,
)
from .fetch import (
    Fetcher,
    FetchMode,
    FetchRequest,
    FetchResponse,
    FixtureStore,
    fetch,
    fixture_key,
)
from .model import (
    Attribution,
    EvidenceItem,
    Outcome,
    RankedResults,
    RatingKind,
    SourceId,
    TruthRating,
    TweetClaim,
    Verdict,
    classify_rating,
    implied_attribution,
)
from .pipeline import VerifyRun, verify_claim
from .queries import (
    Encoding,
    QuerySpec,
    Truncation,
    build_query,
    default_spec,
    encode_query,
    truncate_body,
)
from .ratings import (
    canonicalize_article_url,
    identify_publisher,
    scrape_rating,
    scrape_reuters_rating,
    scrape_snopes_rating,
)
from .verdict import aggregate

__version__ = "0.1.0"
