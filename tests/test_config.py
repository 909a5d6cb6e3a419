from pathlib import Path

import pytest

from tweetcheck.adapters import ENGINES, ranked_search
from tweetcheck.config import AppConfig, ConfigError, build_config, load_keyvalues, source_by_name
from tweetcheck.errors import CaptchaDetected
from tweetcheck.fetch import DEFAULT_USER_AGENT, FetchMode
from tweetcheck.htmldoc import parse_selector
from tweetcheck.model import SourceId, TweetClaim

from conftest import (
    LITERAL_TEXT_KEYS,
    SELECTOR_CONSTANTS,
    StubPage,
    engine_query_url,
    record_pages,
    replay_fetcher,
)


class TestKeyValues:
    def test_parses_pairs_and_skips_comments(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# comment\n\nmode = replay\nuser_agent=my agent\n", encoding="utf-8")
        assert load_keyvalues(path) == {"mode": "replay", "user_agent": "my agent"}

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("justtext\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_keyvalues(path)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
    def test_unreadable_file_is_a_config_error_naming_it(self, tmp_path, kind):
        path = {"missing": tmp_path / "absent.conf", "directory": tmp_path, "not UTF-8": tmp_path / "c.conf"}[kind]
        if kind == "not UTF-8":
            path.write_bytes(b"mode = \xff\n")
        with pytest.raises(ConfigError, match="cannot read") as info:
            load_keyvalues(path)
        assert str(path) in str(info.value)


    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_bytes(b"\xef\xbb\xbfpoliteness_delay_ms = 250\n")
        assert build_config(path, env={}).politeness_delay_ms == 250


class TestBuildConfig:
    def test_defaults(self):
        config = build_config(env={})
        assert config.mode is FetchMode.LIVE
        assert config.user_agent == DEFAULT_USER_AGENT
        assert config.politeness_delay_ms == 1000
        assert config.max_articles == 3

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text(
            "mode=record\nfixtures=/tmp/fx\npoliteness_delay_ms=250\n"
            "verify.max_articles=5\nuser_agent=probe/1.0\ntimeout_s=7.5\n",
            encoding="utf-8",
        )
        config = build_config(path, env={})
        assert config.mode is FetchMode.RECORD
        assert str(config.fixtures_dir) == "/tmp/fx"
        assert config.politeness_delay_ms == 250
        assert config.max_articles == 5
        assert config.user_agent == "probe/1.0"
        assert config.timeout_s == 7.5

    def test_env_overrides_file_mode_only(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("mode=live\nuser_agent=from-file\n", encoding="utf-8")
        config = build_config(path, env={"TWEETCHECK_MODE": "replay"})
        assert config.mode is FetchMode.REPLAY
        assert config.user_agent == "from-file"

    def test_file_env_and_flags_in_one_call(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("mode=record\nfixtures=/tmp/from-file\nuser_agent=from-file\nverify.max_articles=5\n",
                        encoding="utf-8")
        config = build_config(
            path, env={"TWEETCHECK_MODE": "replay"}, mode=None, fixtures_dir=Path("/tmp/from-flag"), max_articles=2
        )
        # a flag of None is not given: the environment's mode stands over the file's
        assert config.mode is FetchMode.REPLAY
        assert config.fixtures_dir == Path("/tmp/from-flag")
        assert config.user_agent == "from-file"
        assert config.max_articles == 2
        assert build_config(path, env={"TWEETCHECK_MODE": "replay"}, mode=FetchMode.LIVE).mode is FetchMode.LIVE

    def test_max_articles_flag_checked_under_its_flag_name(self):
        with pytest.raises(ConfigError, match="^--max-articles must be greater than 0, got 0$"):
            build_config(env={}, max_articles=0)

    def test_readme_example_builds(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        example = section.split("```\n", 2)[1]  # the first fenced block
        path = tmp_path / "c.conf"
        path.write_text(example, encoding="utf-8")
        config = build_config(path, env={})
        assert config.mode is FetchMode.REPLAY
        assert config.engines[SourceId.SNOPES_SEARCH] == ENGINES[SourceId.SNOPES_SEARCH]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("not_a_key=1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            build_config(path, env={})

    def test_bad_mode_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("mode=offline\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            build_config(path, env={})

    def test_non_numeric_delay_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("politeness_delay_ms=fast\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            build_config(path, env={})

    @pytest.mark.parametrize(
        "line, message",
        [
            ("timeout_s = -2.5", "timeout_s must be greater than 0, got -2.5"),
            ("timeout_s = nan", "timeout_s must be greater than 0, got nan"),
            ("verify.max_articles = -1", "verify.max_articles must be greater than 0, got -1"),
        ],
    )
    def test_out_of_range_value_rejected_naming_the_key(self, tmp_path, line, message):
        path = tmp_path / "c.conf"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            build_config(path, env={})
        assert str(exc.value) == message

    def test_smallest_in_range_values_accepted(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("timeout_s = 0.001\nverify.max_articles = 1\n", encoding="utf-8")
        config = build_config(path, env={})
        assert (config.timeout_s, config.max_articles) == (0.001, 1)

    @pytest.mark.parametrize(
        "line",
        [
            "timeout_s = 86400",
            "politeness_delay_ms = 0",  # the benchmark's record and replay runs
            "politeness_delay_ms = 86400000",
            "endpoint.snopes = http://www.snopes.com/search/{query}/",  # the benchmark's fake origin
            "endpoint.politwoops = https://projects.propublica.org/politwoops/index?utf8=%E2%9C%93&q={query}",
            "endpoint.web = https://mirror.example:8443/search?q={query}&literal={{braces}}",
            "user_agent = probe/1.0 (+https://example.org/bot; contact@example.org)",
        ],
    )
    def test_values_a_live_run_can_use_accepted(self, tmp_path, line):
        path = tmp_path / "c.conf"
        path.write_text(line + "\n", encoding="utf-8")
        build_config(path, env={})


class TestEngineSettings:
    def test_endpoint_override(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("endpoint.snopes=https://mirror.example/search/{query}/\n", encoding="utf-8")
        config = build_config(path, env={})
        settings = config.engines[SourceId.SNOPES_SEARCH]
        assert settings.endpoint.startswith("https://mirror.example/")
        # in a read-only copy: the shared table keeps its row
        assert ENGINES[SourceId.SNOPES_SEARCH].endpoint == "https://www.snopes.com/search/{query}/"
        assert config.engines[SourceId.REUTERS_SEARCH] is ENGINES[SourceId.REUTERS_SEARCH]
        with pytest.raises(TypeError):
            config.engines[SourceId.REUTERS_SEARCH] = settings

    def test_captcha_selector_honoured_on_a_site_search_engine(self, tmp_path):
        row = ENGINES[SourceId.SNOPES_SEARCH]
        settings = row.replace(selectors={**row.selectors, "captcha": "div.challenge"})
        body = "a claim that meets a challenge"
        challenge = b'<html><body><div class="challenge">Are you human?</div></body></html>'
        store = record_pages(tmp_path / "fx", {engine_query_url(SourceId.SNOPES_SEARCH, body): StubPage(challenge)})
        claim = TweetClaim(body=body)
        assert ranked_search(ENGINES[SourceId.SNOPES_SEARCH], claim, replay_fetcher(store)).urls == ()
        with pytest.raises(CaptchaDetected):
            ranked_search(settings, claim, replay_fetcher(store))

    @pytest.mark.parametrize(
        "key",
        [*(f"selectors.{source.value}" for source in SourceId), "rating-selectors.snopes", "rating-selectors.reuters"],
    )
    def test_former_selector_file_key_is_an_unknown_key(self, tmp_path, key):
        path = tmp_path / "c.conf"
        path.write_text(f"{key}=/dev/null\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            build_config(path, env={})
        assert str(exc.value) == f"unknown configuration key: {key!r}"

    def test_rating_selector_unknown_publisher_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("rating-selectors.apnews=/dev/null\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            build_config(path, env={})

    def test_unknown_query_setting_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("query.snopes.colour=blue\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            build_config(path, env={})

    def test_unknown_engine_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("endpoint.bing=https://x/{query}\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            build_config(path, env={})


class TestSelectorConstants:
    """Selectors are constants in code, so no file is compiled when a
    configuration is built: each constant must compile as it stands. So none
    holds ``[attr*=""]``, which CSS matches nowhere and parse_selector rejects."""

    @pytest.mark.parametrize(
        "table, key, selector",
        [entry for entry in SELECTOR_CONSTANTS if entry[1] not in LITERAL_TEXT_KEYS],
        ids=lambda value: str(value),
    )
    def test_selector_compiles(self, table, key, selector):
        assert parse_selector(selector)

    def test_web_rows_scope_their_results(self):
        for table in ("web", "web-snopes"):
            assert (table, "scope", "div#search") in SELECTOR_CONSTANTS
            assert (table, "results", "a[href]") in SELECTOR_CONSTANTS

    def test_no_selector_is_a_descendant_chain(self):
        selectors = [value for _, key, value in SELECTOR_CONSTANTS if key not in LITERAL_TEXT_KEYS]
        assert not [value for value in selectors if any(len(part.split()) > 1 for part in value.split(","))]

    def test_every_literal_text_entry_is_nonblank(self):
        literals = [value for _, key, value in SELECTOR_CONSTANTS if key in LITERAL_TEXT_KEYS]
        assert literals and all(value.strip() for value in literals)


class TestFinishedConfig:
    """A configuration is a Record: finished when it is built."""

    def test_fields_cannot_be_assigned(self):
        for config in (AppConfig(), build_config(env={})):
            with pytest.raises(AttributeError):
                config.mode = FetchMode.REPLAY
            assert config.mode is FetchMode.LIVE
        assert AppConfig().replace(mode=FetchMode.REPLAY).mode is FetchMode.REPLAY

    def test_default_engines_are_the_shared_read_only_table(self):
        config = AppConfig()
        assert build_config(env={}).engines is config.engines is ENGINES
        row = ENGINES[SourceId.SNOPES_SEARCH]
        with pytest.raises(TypeError):
            config.engines[SourceId.SNOPES_SEARCH] = row.replace(endpoint="https://x.example/{query}")
        assert ENGINES[SourceId.SNOPES_SEARCH] is row


class TestFetcherConstruction:
    def test_replay_without_fixtures_rejected(self):
        config = AppConfig(mode=FetchMode.REPLAY)
        with pytest.raises(ConfigError):
            config.build_fetcher()

    def test_source_lookup(self):
        assert source_by_name("web-snopes") is SourceId.WEB_SEARCH_SITE_SNOPES
        with pytest.raises(ConfigError):
            source_by_name("askjeeves")
