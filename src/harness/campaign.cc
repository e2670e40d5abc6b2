#include "harness/campaign.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>

#include "sim/log.hh"

namespace unxpec {

namespace {

// --- number formatting ---------------------------------------------------
//
// Manifest values must survive a write/parse round trip bit-exactly:
// resume splices journaled metrics into the result, and the ISSUE-level
// guarantee is that a resumed run's JSON is byte-identical to an
// uninterrupted one. max_digits10 decimal digits round-trip every
// finite double; non-finite values (JSON has no literal for them) are
// stored as the strings "nan" / "inf" / "-inf".

std::string
numToken(double value)
{
    if (std::isnan(value))
        return "\"nan\"";
    if (std::isinf(value))
        return value > 0 ? "\"inf\"" : "\"-inf\"";
    std::ostringstream oss;
    oss.imbue(std::locale::classic());
    oss.precision(std::numeric_limits<double>::max_digits10);
    oss << value;
    return oss.str();
}

std::string
escapeString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += "\"";
    return out;
}

// --- minimal JSON reader -------------------------------------------------
//
// Just enough JSON for the manifest lines this file writes itself:
// objects, arrays, strings, bools, null, and numbers. Number tokens
// keep their raw text so 64-bit seeds parse losslessly as integers and
// metric values parse as doubles — both via std::from_chars, which is
// locale-independent by definition (strtod would honor LC_NUMERIC).

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; //!< string payload, or a number's raw token
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue *
    field(const std::string &key) const
    {
        for (const auto &[name, value] : fields) {
            if (name == key)
                return &value;
        }
        return nullptr;
    }
};

class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

    const std::string &error() const { return error_; }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = what + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
        case '{': return parseObject(out);
        case '[': return parseArray(out);
        case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        default:
            return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("dangling escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                const char *first = text_.data() + pos_;
                const auto [p, ec] =
                    std::from_chars(first, first + 4, code, 16);
                if (ec != std::errc() || p != first + 4)
                    return fail("bad \\u escape");
                pos_ += 4;
                // The writer only escapes control characters; decode
                // the low byte and refuse anything wider.
                if (code > 0xff)
                    return fail("non-latin \\u escape unsupported");
                out += static_cast<char>(code);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("expected a value");
        out.kind = JsonValue::Kind::Number;
        out.text = text_.substr(start, pos_ - start);
        double probe = 0.0;
        const char *first = out.text.data();
        const char *last = first + out.text.size();
        const auto [p, ec] = std::from_chars(first, last, probe);
        if (ec != std::errc() || p != last)
            return fail("malformed number '" + out.text + "'");
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            skipSpace();
            if (!parseValue(item))
                return false;
            out.items.push_back(std::move(item));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipSpace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.fields.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
};

// --- typed accessors (fatal on shape mismatch) ---------------------------

[[noreturn]] void
badManifest(const std::string &path, std::size_t lineno,
            const std::string &what)
{
    fatal("campaign manifest ", path, ":", lineno, ": ", what);
}

const JsonValue &
requireField(const JsonValue &obj, const char *key, const std::string &path,
             std::size_t lineno)
{
    const JsonValue *value = obj.field(key);
    if (value == nullptr)
        badManifest(path, lineno, std::string("missing field '") + key + "'");
    return *value;
}

std::uint64_t
asU64(const JsonValue &value, const char *key, const std::string &path,
      std::size_t lineno)
{
    if (value.kind != JsonValue::Kind::Number)
        badManifest(path, lineno,
                    std::string("field '") + key + "' is not a number");
    std::uint64_t out = 0;
    const char *first = value.text.data();
    const char *last = first + value.text.size();
    const auto [p, ec] = std::from_chars(first, last, out);
    if (ec != std::errc() || p != last)
        badManifest(path, lineno,
                    std::string("field '") + key +
                        "' is not an unsigned integer");
    return out;
}

double
asDouble(const JsonValue &value, const std::string &path, std::size_t lineno)
{
    if (value.kind == JsonValue::Kind::String) {
        if (value.text == "nan")
            return std::numeric_limits<double>::quiet_NaN();
        if (value.text == "inf")
            return std::numeric_limits<double>::infinity();
        if (value.text == "-inf")
            return -std::numeric_limits<double>::infinity();
        badManifest(path, lineno,
                    "unknown non-finite token '" + value.text + "'");
    }
    if (value.kind != JsonValue::Kind::Number)
        badManifest(path, lineno, "expected a numeric value");
    double out = 0.0;
    const char *first = value.text.data();
    const char *last = first + value.text.size();
    const auto [p, ec] = std::from_chars(first, last, out);
    if (ec != std::errc() || p != last)
        badManifest(path, lineno, "malformed number '" + value.text + "'");
    return out;
}

std::string
asString(const JsonValue &value, const char *key, const std::string &path,
         std::size_t lineno)
{
    if (value.kind != JsonValue::Kind::String)
        badManifest(path, lineno,
                    std::string("field '") + key + "' is not a string");
    return value.text;
}

constexpr const char *kManifestSchema = "unxpec-campaign-v1";

CampaignHeader
parseHeaderLine(const JsonValue &obj, const std::string &path,
                std::size_t lineno)
{
    const std::string schema =
        asString(requireField(obj, "schema", path, lineno), "schema", path,
                 lineno);
    if (schema != kManifestSchema) {
        badManifest(path, lineno,
                    "schema '" + schema + "' (expected '" +
                        kManifestSchema + "')");
    }
    CampaignHeader header;
    header.experiment = asString(
        requireField(obj, "experiment", path, lineno), "experiment", path,
        lineno);
    header.masterSeed = asU64(
        requireField(obj, "master_seed", path, lineno), "master_seed", path,
        lineno);
    header.specs = static_cast<std::size_t>(asU64(
        requireField(obj, "specs", path, lineno), "specs", path, lineno));
    header.reps = static_cast<unsigned>(asU64(
        requireField(obj, "reps", path, lineno), "reps", path, lineno));
    // Journals from builds with the lock-step batch kernel carry a
    // "batch" width. Width 1 ran serially and resumes as-is; wider
    // groups were censored under a host watchdog that timed each trial's
    // share of its lock-step group, which this build cannot reproduce.
    if (const JsonValue *batch = obj.field("batch")) {
        const std::uint64_t width = asU64(*batch, "batch", path, lineno);
        if (width > 1) {
            fatal("cannot resume from '", path, "': the manifest was "
                  "journaled under lock-step batch width ", width,
                  ", whose host-watchdog censoring this build cannot "
                  "reproduce; start a fresh campaign");
        }
    }
    // Optional provenance field: manifests written before it existed
    // simply lack it, and 0 means "not recorded, not checked".
    if (const JsonValue *digest = obj.field("spec_digest"))
        header.specDigest = asU64(*digest, "spec_digest", path, lineno);
    return header;
}

CampaignEntry
parseEntryLine(const JsonValue &obj, const std::string &path,
               std::size_t lineno)
{
    CampaignEntry entry;
    entry.job = static_cast<std::size_t>(
        asU64(requireField(obj, "job", path, lineno), "job", path, lineno));
    entry.seed =
        asU64(requireField(obj, "seed", path, lineno), "seed", path, lineno);
    entry.attempt = static_cast<unsigned>(asU64(
        requireField(obj, "attempt", path, lineno), "attempt", path, lineno));
    const JsonValue &censored = requireField(obj, "censored", path, lineno);
    if (censored.kind != JsonValue::Kind::Bool)
        badManifest(path, lineno, "field 'censored' is not a bool");
    entry.censored = censored.boolean;
    entry.censorReason = asString(
        requireField(obj, "reason", path, lineno), "reason", path, lineno);

    const JsonValue &metrics = requireField(obj, "metrics", path, lineno);
    if (metrics.kind != JsonValue::Kind::Array)
        badManifest(path, lineno, "field 'metrics' is not an array");
    for (const JsonValue &pair : metrics.items) {
        if (pair.kind != JsonValue::Kind::Array || pair.items.size() != 2 ||
            pair.items[0].kind != JsonValue::Kind::String) {
            badManifest(path, lineno, "metric entry is not [name, value]");
        }
        entry.metrics.emplace_back(pair.items[0].text,
                                   asDouble(pair.items[1], path, lineno));
    }

    const JsonValue &series = requireField(obj, "series", path, lineno);
    if (series.kind != JsonValue::Kind::Array)
        badManifest(path, lineno, "field 'series' is not an array");
    for (const JsonValue &pair : series.items) {
        if (pair.kind != JsonValue::Kind::Array || pair.items.size() != 2 ||
            pair.items[0].kind != JsonValue::Kind::String ||
            pair.items[1].kind != JsonValue::Kind::Array) {
            badManifest(path, lineno, "series entry is not [name, [values]]");
        }
        std::vector<double> values;
        values.reserve(pair.items[1].items.size());
        for (const JsonValue &value : pair.items[1].items)
            values.push_back(asDouble(value, path, lineno));
        entry.series.emplace_back(pair.items[0].text, std::move(values));
    }
    return entry;
}

} // namespace

std::string
campaignHeaderLine(const CampaignHeader &header)
{
    std::string line = "{\"schema\":\"";
    line += kManifestSchema;
    line += "\",\"experiment\":";
    line += escapeString(header.experiment);
    line += ",\"master_seed\":";
    line += std::to_string(header.masterSeed);
    line += ",\"specs\":";
    line += std::to_string(header.specs);
    line += ",\"reps\":";
    line += std::to_string(header.reps);
    if (header.specDigest != 0) {
        line += ",\"spec_digest\":";
        line += std::to_string(header.specDigest);
    }
    line += "}";
    return line;
}

std::uint64_t
campaignSpecDigest(const std::vector<std::string> &labels)
{
    // FNV-1a over every label with a separator byte after each, so
    // ["ab","c"] and ["a","bc"] digest differently.
    std::uint64_t hash = 14695981039346656037ull;
    constexpr std::uint64_t kPrime = 1099511628211ull;
    for (const std::string &label : labels) {
        for (const char c : label) {
            hash ^= static_cast<unsigned char>(c);
            hash *= kPrime;
        }
        hash ^= 0x1f;
        hash *= kPrime;
    }
    return hash == 0 ? 1 : hash;
}

std::string
campaignEntryLine(const CampaignEntry &entry)
{
    std::string line = "{\"job\":";
    line += std::to_string(entry.job);
    line += ",\"seed\":";
    line += std::to_string(entry.seed);
    line += ",\"attempt\":";
    line += std::to_string(entry.attempt);
    line += ",\"censored\":";
    line += entry.censored ? "true" : "false";
    line += ",\"reason\":";
    line += escapeString(entry.censorReason);
    line += ",\"metrics\":[";
    for (std::size_t m = 0; m < entry.metrics.size(); ++m) {
        if (m != 0)
            line += ",";
        line += "[";
        line += escapeString(entry.metrics[m].first);
        line += ",";
        line += numToken(entry.metrics[m].second);
        line += "]";
    }
    line += "],\"series\":[";
    for (std::size_t s = 0; s < entry.series.size(); ++s) {
        if (s != 0)
            line += ",";
        line += "[";
        line += escapeString(entry.series[s].first);
        line += ",[";
        const std::vector<double> &values = entry.series[s].second;
        for (std::size_t v = 0; v < values.size(); ++v) {
            if (v != 0)
                line += ",";
            line += numToken(values[v]);
        }
        line += "]]";
    }
    line += "]}";
    return line;
}

CampaignManifest
loadCampaignManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open campaign manifest '", path, "'");

    CampaignManifest manifest;
    std::string line;
    std::size_t lineno = 0;
    bool saw_header = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue value;
        JsonReader reader(line);
        if (!reader.parse(value))
            badManifest(path, lineno, reader.error());
        if (value.kind != JsonValue::Kind::Object)
            badManifest(path, lineno, "line is not a JSON object");
        if (!saw_header) {
            manifest.header = parseHeaderLine(value, path, lineno);
            saw_header = true;
            continue;
        }
        CampaignEntry entry = parseEntryLine(value, path, lineno);
        const std::size_t job = entry.job;
        // Last entry wins: a resumed shard re-journals inherited rows.
        manifest.entries[job] = std::move(entry);
    }
    if (!saw_header)
        fatal("campaign manifest '", path, "' has no header line");
    return manifest;
}

void
requireCompatibleManifest(const CampaignManifest &manifest,
                          const CampaignHeader &expected,
                          const std::string &path)
{
    const CampaignHeader &have = manifest.header;
    if (have.masterSeed != expected.masterSeed) {
        fatal("cannot resume from '", path, "': manifest master seed ",
              have.masterSeed, " != campaign master seed ",
              expected.masterSeed);
    }
    if (have.specs != expected.specs || have.reps != expected.reps) {
        fatal("cannot resume from '", path, "': manifest shape ", have.specs,
              " specs x ", have.reps, " reps != campaign shape ",
              expected.specs, " specs x ", expected.reps, " reps");
    }
    if (!have.experiment.empty() && !expected.experiment.empty() &&
        have.experiment != expected.experiment) {
        fatal("cannot resume from '", path, "': manifest experiment '",
              have.experiment, "' != campaign experiment '",
              expected.experiment, "'");
    }
    if (have.specDigest != 0 && expected.specDigest != 0 &&
        have.specDigest != expected.specDigest) {
        fatal("cannot resume from '", path, "': manifest spec digest ",
              have.specDigest, " != campaign spec digest ",
              expected.specDigest, " (the spec list or its sweep order "
              "changed; job indices would splice journaled results into "
              "the wrong rows)");
    }
}

CampaignJournal::CampaignJournal(std::string path,
                                 const CampaignHeader &header)
    : path_(std::move(path)), headerLine_(campaignHeaderLine(header))
{
}

void
CampaignJournal::absorb(const CampaignEntry &entry)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(campaignEntryLine(entry));
}

void
CampaignJournal::append(const CampaignEntry &entry)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(campaignEntryLine(entry));
    flushLocked();
}

void
CampaignJournal::flush()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    flushLocked();
}

void
CampaignJournal::flushLocked()
{
    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            fatal("cannot open campaign journal '", tmp, "' for writing");
        out << headerLine_ << "\n";
        for (const std::string &line : lines_)
            out << line << "\n";
        out.flush();
        if (!out.good())
            fatal("short write to campaign journal '", tmp, "'");
    }
    // Atomic within the manifest's directory: a crash leaves either the
    // previous complete manifest or the new complete manifest, never a
    // torn file.
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        fatal("cannot rename '", tmp, "' over '", path_,
              "': ", std::strerror(errno));
    }
}

int
spawnShardWorker(const std::function<void()> &body)
{
    // Flush buffered streams so the child doesn't inherit (and later
    // re-emit) a copy of the parent's pending output.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork() failed for shard worker: ", std::strerror(errno));
    if (pid == 0) {
        body();
        // _exit, not exit: skip atexit handlers and the stdio flush of
        // buffers cloned from the parent.
        ::_exit(0);
    }
    return static_cast<int>(pid);
}

ShardExit
waitAnyShardWorker()
{
    int status = 0;
    pid_t pid = -1;
    do {
        pid = ::waitpid(-1, &status, 0);
    } while (pid < 0 && errno == EINTR);
    if (pid < 0)
        fatal("waitpid() failed reaping shard workers: ",
              std::strerror(errno));

    ShardExit exit;
    exit.pid = static_cast<int>(pid);
    if (WIFEXITED(status)) {
        exit.exitCode = WEXITSTATUS(status);
        exit.crashed = exit.exitCode != 0;
    } else if (WIFSIGNALED(status)) {
        exit.crashed = true;
        exit.termSignal = WTERMSIG(status);
    } else {
        exit.crashed = true;
    }
    return exit;
}

void
backoffBeforeRetry(unsigned attempt)
{
    if (attempt == 0)
        return;
    const unsigned shift = std::min(attempt - 1, 6u);
    const std::uint64_t ms = std::min<std::uint64_t>(25u << shift, 2000);
    // lint-ok(wall-clock): host-side backoff between relaunches of
    // crashed shards; never inside the simulated core.
    ::usleep(static_cast<useconds_t>(ms * 1000));
}

CrashInjector::CrashInjector()
{
    const char *env = std::getenv("UNXPEC_CRASH_AFTER_TRIALS");
    if (env == nullptr || *env == '\0')
        return;
    std::uint64_t value = 0;
    const char *last = env + std::strlen(env);
    const auto [p, ec] = std::from_chars(env, last, value);
    if (ec != std::errc() || p != last) {
        warn("ignoring malformed UNXPEC_CRASH_AFTER_TRIALS='", env, "'");
        return;
    }
    threshold_ = value;
}

void
CrashInjector::onTrialComplete()
{
    if (threshold_ == 0)
        return;
    bool boom = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        boom = ++completed_ == threshold_;
    }
    if (boom) {
        warn("crash injection: aborting after ", threshold_,
             " trials (UNXPEC_CRASH_AFTER_TRIALS)");
        std::abort();
    }
}

} // namespace unxpec
