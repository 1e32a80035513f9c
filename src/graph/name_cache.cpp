#include "graph/name_cache.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/parallel.h"
#include "util/serialize.h"

namespace seg::graph {

namespace {

constexpr int kFormatVersion = 1;

// Raw query-name spellings are attacker-controlled bytes; percent-escape
// whatever would break the whitespace-delimited record format.
std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      constexpr char kHex[] = "0123456789ABCDEF";
      out += '%';
      out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
      out += kHex[static_cast<unsigned char>(c) & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%' && i + 2 < text.size()) {
      const int hi = hex_value(text[i + 1]);
      const int lo = hex_value(text[i + 2]);
      util::require_data(hi >= 0 && lo >= 0,
                         "NameCache::load: malformed percent escape");
      out += static_cast<char>((hi << 4) | lo);
      i += 2;
    } else {
      util::require_data(text[i] != '%', "NameCache::load: truncated percent escape");
      out += text[i];
    }
  }
  return out;
}

}  // namespace

NameCache::NameCache(std::size_t num_shards)
    : shards_(std::max<std::size_t>(1, num_shards)) {}

std::size_t NameCache::shard_of(std::string_view name) const {
  return std::hash<std::string_view>{}(name) % shards_.size();
}

const NameCache::Entry* NameCache::find(std::string_view name) const {
  const auto& shard = shards_[shard_of(name)];
  const auto it = shard.ids.find(name);
  return it != shard.ids.end() ? &shard.entries[it->second] : nullptr;
}

std::size_t NameCache::merge(const std::vector<std::vector<NewName>>& per_source) {
  // Bucket every key by target shard first (serial, hashing only), so the
  // insertion loop below owns each shard exclusively and can run in
  // parallel. Bucket order is (source, index, raw-before-alias) — fixed by
  // the input, not by thread scheduling — so the cache contents are
  // deterministic (not that lookups could tell: entries are pure functions
  // of the name).
  struct Ref {
    std::uint32_t source = 0;
    std::uint32_t index = 0;
    bool alias = false;  // key by normalized form instead of raw spelling
  };
  std::vector<std::vector<Ref>> buckets(shards_.size());
  for (std::uint32_t s = 0; s < per_source.size(); ++s) {
    for (std::uint32_t i = 0; i < per_source[s].size(); ++i) {
      const auto& name = per_source[s][i];
      buckets[shard_of(name.raw)].push_back(Ref{s, i, false});
      if (name.valid && name.normalized != name.raw) {
        buckets[shard_of(name.normalized)].push_back(Ref{s, i, true});
      }
    }
  }

  std::vector<std::size_t> inserted_normalized(shards_.size(), 0);
  util::parallel_for(shards_.size(), [&](std::size_t sh) {
    auto& shard = shards_[sh];
    for (const auto& ref : buckets[sh]) {
      const auto& name = per_source[ref.source][ref.index];
      const std::string& key = ref.alias ? name.normalized : name.raw;
      if (shard.ids.contains(key)) {
        continue;
      }
      shard.entries.push_back(Entry{name.normalized, name.e2ld, name.valid});
      shard.ids.emplace(key, static_cast<std::uint32_t>(shard.entries.size() - 1));
      if (name.valid && key == name.normalized) {
        ++inserted_normalized[sh];
      }
    }
  });

  std::size_t total = 0;
  for (const auto count : inserted_normalized) {
    total += count;
  }
  return total;
}

std::size_t NameCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.entries.size();
  }
  return total;
}

void NameCache::save(std::ostream& out) const {
  // Key order in the shards depends on shard count and hash; sort the whole
  // key set first so the serialized bytes are a pure function of the
  // dictionary contents.
  std::map<std::string_view, const Entry*> sorted;
  for (const auto& shard : shards_) {
    for (const auto& [key, index] : shard.ids) {
      sorted.emplace(key, &shard.entries[index]);
    }
  }
  util::write_format_header(out, "namecache", kFormatVersion);
  out << "namecache " << sorted.size() << '\n';
  for (const auto& [key, entry] : sorted) {
    out << escape(key) << ' ' << (entry->valid ? 1 : 0);
    if (entry->valid) {
      out << ' ' << escape(entry->normalized) << ' ' << escape(entry->e2ld);
    }
    out << '\n';
  }
}

NameCache NameCache::load(std::istream& in, std::size_t num_shards) {
  (void)util::read_format_header(in, "namecache", kFormatVersion);
  std::string tag;
  std::size_t count = 0;
  in >> tag >> count;
  util::require_data(static_cast<bool>(in) && tag == "namecache",
                     "NameCache::load: malformed section header");

  NameCache cache(num_shards);
  for (std::size_t i = 0; i < count; ++i) {
    std::string key_text;
    int valid = 0;
    in >> key_text >> valid;
    util::require_data(static_cast<bool>(in) && (valid == 0 || valid == 1),
                       "NameCache::load: truncated record");
    Entry entry;
    entry.valid = valid == 1;
    if (entry.valid) {
      std::string normalized_text;
      std::string e2ld_text;
      in >> normalized_text >> e2ld_text;
      util::require_data(static_cast<bool>(in), "NameCache::load: truncated record");
      entry.normalized = unescape(normalized_text);
      entry.e2ld = unescape(e2ld_text);
    }
    const std::string key = unescape(key_text);
    auto& shard = cache.shards_[cache.shard_of(key)];
    util::require_data(!shard.ids.contains(key),
                       "NameCache::load: duplicate key '" + key + "'");
    shard.entries.push_back(std::move(entry));
    shard.ids.emplace(key, static_cast<std::uint32_t>(shard.entries.size() - 1));
  }
  return cache;
}

}  // namespace seg::graph
