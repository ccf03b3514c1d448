// Compiled rule engine — the fast-path half of the two-tier classifier.
//
// RuleSet::standard() scans ~200 rules linearly per flow, which the paper's
// Click pipeline could not afford at AP line rate. RuleIndex compiles the
// same rules once into constant-time dispatch structures:
//
//   * a suffix trie over reversed hostname labels for the domain rules
//     (longest-suffix-wins, first-rule tie-break — provably identical to
//     the linear scan because suffixes matching one host are nested),
//   * 65536-entry per-transport port dispatch tables (first rule wins),
//   * exact-match hash buckets for canonical User-Agent strings and DHCP
//     option-55 fingerprints, populated *by running the reference
//     functions at build time* so hits are identical by construction.
//
// The index is the only runtime engine. The linear RuleSet (with the full
// extract_metadata() reparse) stays a plain function that tests and the
// classify bench call directly as the differential-testing oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "classify/apps.hpp"
#include "classify/dhcp_fingerprint.hpp"
#include "classify/os.hpp"
#include "classify/rules.hpp"

namespace wlm::classify {

class RuleIndex {
 public:
  /// Index compiled over RuleSet::standard(); built once, immutable after.
  [[nodiscard]] static const RuleIndex& standard();

  explicit RuleIndex(const RuleSet& rules);

  /// Verdict-identical replica of RuleSet::classify over the compiled
  /// structures (same fallback-bucket cascade, same tie-breaks).
  [[nodiscard]] AppId classify(const FlowMetadata& flow) const;

  /// Longest-suffix domain match via the reversed-label trie.
  [[nodiscard]] std::optional<AppId> match_domain(std::string_view host) const;

  /// O(1) port rule lookup.
  [[nodiscard]] std::optional<AppId> match_port(Transport t, std::uint16_t port) const;

  /// User-Agent -> OS with an exact-match bucket over the canonical strings;
  /// unseen strings fall back to the reference substring scan.
  [[nodiscard]] std::optional<OsType> os_from_user_agent(std::string_view ua) const;

  /// DHCP option-55 fingerprint -> OS with an exact-match bucket over the
  /// canonical signatures; unseen lists fall back to the reference matcher.
  [[nodiscard]] std::optional<OsType> os_from_dhcp(std::span<const std::uint8_t> params) const;

  [[nodiscard]] std::size_t trie_node_count() const { return trie_nodes_; }
  [[nodiscard]] std::size_t ua_bucket_count() const { return ua_exact_.size(); }
  [[nodiscard]] std::size_t dhcp_bucket_count() const { return dhcp_exact_.size(); }

 private:
  struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct TrieNode {
    std::unordered_map<std::string, std::unique_ptr<TrieNode>, StringHash, std::equal_to<>>
        children;
    std::optional<AppId> app;  // terminal: a rule's domain ends at this node
  };

  void insert_domain(std::string_view domain, AppId app);

  TrieNode root_;
  std::size_t trie_nodes_ = 1;
  std::vector<AppId> tcp_ports_;  // 65536 entries, kUnclassified = no rule
  std::vector<AppId> udp_ports_;
  std::unordered_map<std::string, std::optional<OsType>, StringHash, std::equal_to<>> ua_exact_;
  std::unordered_map<std::string, std::optional<OsType>, StringHash, std::equal_to<>> dhcp_exact_;
};

}  // namespace wlm::classify
