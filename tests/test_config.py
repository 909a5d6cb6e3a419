import pytest

from tweetcheck.adapters import ENGINES, ranked_search
from tweetcheck.config import AppConfig, ConfigError, build_config, load_keyvalues, source_by_name
from tweetcheck.errors import CaptchaDetected
from tweetcheck.fetch import DEFAULT_USER_AGENT, FetchMode
from tweetcheck.model import SourceId, TweetClaim
from tweetcheck.ratings import DEFAULT_RATING_SELECTORS

from conftest import StubPage, engine_query_url, record_pages, replay_fetcher


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

    def test_selector_file_merges_over_defaults(self, tmp_path):
        selectors = tmp_path / "snopes_selectors.conf"
        selectors.write_text("results=div.results a[href]\n", encoding="utf-8")
        path = tmp_path / "c.conf"
        path.write_text(f"selectors.snopes={selectors}\n", encoding="utf-8")
        config = build_config(path, env={})
        settings = config.engines[SourceId.SNOPES_SEARCH]
        assert settings.selectors == {**ENGINES[SourceId.SNOPES_SEARCH].selectors, "results": "div.results a[href]"}

    def test_rating_selector_file_loaded(self, tmp_path):
        selectors = tmp_path / "snopes_rating.conf"
        selectors.write_text("rating=div.rating-badge\n", encoding="utf-8")
        path = tmp_path / "c.conf"
        path.write_text(f"rating-selectors.snopes={selectors}\n", encoding="utf-8")
        config = build_config(path, env={})
        assert config.rating_selectors == {"snopes": {"rating": "div.rating-badge"},
                                           "reuters": DEFAULT_RATING_SELECTORS["reuters"]}

    def test_selector_files_are_read_once_when_the_config_is_built(self, tmp_path):
        selectors = tmp_path / "snopes_selectors.conf"
        selectors.write_text("results=div.results a[href]\n", encoding="utf-8")
        rating = tmp_path / "snopes_rating.conf"
        rating.write_text("rating=div.rating-badge\n", encoding="utf-8")
        path = tmp_path / "c.conf"
        path.write_text(f"selectors.snopes={selectors}\nrating-selectors.snopes={rating}\n", encoding="utf-8")
        config = build_config(path, env={})
        selectors.unlink()
        rating.unlink()
        assert config.engines[SourceId.SNOPES_SEARCH].selectors["results"] == "div.results a[href]"
        assert config.rating_selectors["snopes"] == {"rating": "div.rating-badge"}

    @pytest.mark.parametrize(
        "key, selector_key",
        [("selectors.snopes", "results"), ("rating-selectors.snopes", "rating")],
        ids=["selectors.snopes", "rating-selectors.snopes"],
    )
    @pytest.mark.parametrize("selector", ["a[[", "div..x", ""])
    def test_malformed_selector_rejected_naming_file_and_key(self, tmp_path, key, selector_key, selector):
        selectors = tmp_path / "bad.conf"
        selectors.write_text(f"{selector_key} = {selector}\n", encoding="utf-8")
        path = tmp_path / "c.conf"
        path.write_text(f"{key}={selectors}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            build_config(path, env={})
        assert str(selectors) in str(exc.value) and selector_key in str(exc.value)

    @pytest.mark.parametrize(
        "key, typo", [("selectors.snopes", "result"), ("selectors.politwoops", "results"),
                      ("rating-selectors.snopes", "ratng"), ("rating-selectors.reuters", "rating")]
    )
    def test_unknown_selector_key_rejected_naming_file_and_key(self, tmp_path, key, typo):
        selectors = tmp_path / "typo.conf"
        selectors.write_text(f"{typo} = div.badge\n", encoding="utf-8")
        path = tmp_path / "c.conf"
        path.write_text(f"{key}={selectors}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            build_config(path, env={})
        assert str(exc.value) == f"{selectors}: unknown selector key {typo}"

    def test_every_key_the_defaults_name_is_accepted(self, tmp_path):
        lines = []
        for source, row in ENGINES.items():
            selectors = tmp_path / f"{source.value}.conf"
            selectors.write_text("".join(f"{key} = div.x\n" for key in row.selectors), encoding="utf-8")
            lines.append(f"selectors.{source.value}={selectors}\n")
        for publisher, defaults in DEFAULT_RATING_SELECTORS.items():
            selectors = tmp_path / f"rating-{publisher}.conf"
            selectors.write_text("".join(f"{key} = div.x\n" for key in defaults), encoding="utf-8")
            lines.append(f"rating-selectors.{publisher}={selectors}\n")
        path = tmp_path / "c.conf"
        path.write_text("".join(lines), encoding="utf-8")
        config = build_config(path, env={})
        assert all(set(row.selectors.values()) == {"div.x"} for row in config.engines.values())
        assert all(set(table.values()) == {"div.x"} for table in config.rating_selectors.values())

    def test_captcha_selector_honoured_on_a_site_search_engine(self, tmp_path):
        selectors = tmp_path / "snopes.conf"
        selectors.write_text("captcha = div.challenge\n", encoding="utf-8")
        path = tmp_path / "c.conf"
        path.write_text(f"selectors.snopes={selectors}\n", encoding="utf-8")
        settings = build_config(path, env={}).engines[SourceId.SNOPES_SEARCH]
        body = "a claim that meets a challenge"
        challenge = b'<html><body><div class="challenge">Are you human?</div></body></html>'
        store = record_pages(tmp_path / "fx", {engine_query_url(SourceId.SNOPES_SEARCH, body): StubPage(challenge)})
        claim = TweetClaim(body=body)
        assert ranked_search(SourceId.SNOPES_SEARCH, claim, replay_fetcher(store)).urls == ()
        with pytest.raises(CaptchaDetected):
            ranked_search(SourceId.SNOPES_SEARCH, claim, replay_fetcher(store), settings)

    def test_literal_text_keys_are_not_compiled(self, tmp_path):
        web = tmp_path / "web.conf"
        web.write_text("captcha_text = unusual traffic [[ here\n", encoding="utf-8")
        reuters = tmp_path / "reuters.conf"
        reuters.write_text("verdict_heading_text = Our verdict:\n", encoding="utf-8")
        path = tmp_path / "c.conf"
        path.write_text(f"selectors.web={web}\nrating-selectors.reuters={reuters}\n", encoding="utf-8")
        config = build_config(path, env={})
        assert config.engines[SourceId.WEB_SEARCH].selectors["captcha_text"] == "unusual traffic [[ here"
        assert config.rating_selectors["reuters"] == {"verdict_heading": "h2, h3, strong", "verdict_heading_text": "Our verdict:"}

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

    def test_unknown_engine_reported_before_its_selector_file_is_read(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("selectors.bing=/no/such/file\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown engine name"):
            build_config(path, env={})


class TestFetcherConstruction:
    def test_replay_without_fixtures_rejected(self):
        config = AppConfig(mode=FetchMode.REPLAY)
        with pytest.raises(ConfigError):
            config.build_fetcher()

    def test_source_lookup(self):
        assert source_by_name("web-snopes") is SourceId.WEB_SEARCH_SITE_SNOPES
        with pytest.raises(ConfigError):
            source_by_name("askjeeves")
