#include "classify/rule_index.hpp"

#include <limits>

#include "classify/dhcp.hpp"
#include "classify/user_agent.hpp"

namespace wlm::classify {

namespace {

/// Walks `host` backwards one dot-separated label at a time.
class ReverseLabelIterator {
 public:
  explicit ReverseLabelIterator(std::string_view host) : host_(host), end_(host.size()) {}

  [[nodiscard]] bool next(std::string_view& label) {
    if (end_ == 0 && consumed_) return false;
    const std::size_t dot = host_.rfind('.', end_ == 0 ? 0 : end_ - 1);
    if (dot == std::string_view::npos || end_ == 0) {
      label = host_.substr(0, end_);
      end_ = 0;
      consumed_ = true;
      return true;
    }
    label = host_.substr(dot + 1, end_ - dot - 1);
    end_ = dot;
    return true;
  }

 private:
  std::string_view host_;
  std::size_t end_;
  bool consumed_ = false;
};

}  // namespace

const RuleIndex& RuleIndex::standard() {
  static const RuleIndex index{RuleSet::standard()};
  return index;
}

RuleIndex::RuleIndex(const RuleSet& rules)
    : tcp_ports_(std::numeric_limits<std::uint16_t>::max() + 1, AppId::kUnclassified),
      udp_ports_(std::numeric_limits<std::uint16_t>::max() + 1, AppId::kUnclassified) {
  for (const auto& r : rules.rules()) {
    switch (r.kind) {
      case RuleKind::kDomainSuffix:
        insert_domain(r.domain, r.app);
        break;
      case RuleKind::kTcpPort:
        // First rule wins, matching the linear scan's front-to-back order.
        if (tcp_ports_[r.port] == AppId::kUnclassified) tcp_ports_[r.port] = r.app;
        break;
      case RuleKind::kUdpPort:
        if (udp_ports_[r.port] == AppId::kUnclassified) udp_ports_[r.port] = r.app;
        break;
    }
  }

  // Evidence buckets: every canonical string the traffic generator can emit,
  // valued by the reference matchers so a bucket hit is identical to a scan
  // by construction. Misses fall back to the scan at lookup time.
  for (int i = 0; i < kOsTypeCount; ++i) {
    const auto os = static_cast<OsType>(i);
    for (unsigned variant = 0; variant < 4; ++variant) {
      const std::string ua = canonical_user_agent(os, variant);
      if (!ua.empty()) ua_exact_.emplace(ua, wlm::classify::os_from_user_agent(ua));
    }
    const DhcpParams params = canonical_dhcp_params(os);
    if (!params.empty()) {
      std::string key(params.begin(), params.end());
      dhcp_exact_.emplace(std::move(key), wlm::classify::os_from_dhcp(params));
    }
  }
}

void RuleIndex::insert_domain(std::string_view domain, AppId app) {
  TrieNode* node = &root_;
  ReverseLabelIterator it(domain);
  std::string_view label;
  while (it.next(label)) {
    auto found = node->children.find(label);
    if (found == node->children.end()) {
      found = node->children.emplace(std::string(label), std::make_unique<TrieNode>()).first;
      ++trie_nodes_;
    }
    node = found->second.get();
  }
  // Two rules with the same domain share this node; the linear scan's strict
  // ">" comparison keeps the earlier rule, so only the first insert sticks.
  if (!node->app) node->app = app;
}

std::optional<AppId> RuleIndex::match_domain(std::string_view host) const {
  if (host.empty()) return std::nullopt;
  const TrieNode* node = &root_;
  std::optional<AppId> best;
  ReverseLabelIterator it(host);
  std::string_view label;
  while (it.next(label)) {
    const auto found = node->children.find(label);
    if (found == node->children.end()) break;
    node = found->second.get();
    // Deeper terminal == longer byte suffix: matching suffixes of one host
    // are nested, so depth order and the scan's length order agree.
    if (node->app) best = node->app;
  }
  return best;
}

std::optional<AppId> RuleIndex::match_port(Transport t, std::uint16_t port) const {
  const AppId app = (t == Transport::kTcp ? tcp_ports_ : udp_ports_)[port];
  if (app == AppId::kUnclassified) return std::nullopt;
  return app;
}

AppId RuleIndex::classify(const FlowMetadata& flow) const {
  // Mirrors RuleSet::classify step for step; see rules.cpp for the rationale
  // behind the cascade order.
  if (const auto app = match_domain(flow.best_hostname())) return *app;
  if (flow.dst_port != 80 && flow.dst_port != 8080 && flow.dst_port != 443) {
    if (const auto app = match_port(flow.transport, flow.dst_port)) return *app;
  }
  if (flow.transport == Transport::kUdp) return AppId::kUdp;
  if (content_type_looks_video(flow.http_content_type)) return AppId::kMiscVideo;
  if (content_type_looks_audio(flow.http_content_type)) return AppId::kMiscAudio;
  if (flow.dst_port == 80 || flow.dst_port == 8080) return AppId::kMiscWeb;
  if (flow.dst_port == 443 || flow.saw_tls) {
    return flow.dst_port == 443 ? AppId::kMiscSecureWeb : AppId::kEncryptedTcp;
  }
  if (flow.high_entropy) return AppId::kEncryptedP2p;
  return AppId::kNonWebTcp;
}

std::optional<OsType> RuleIndex::os_from_user_agent(std::string_view ua) const {
  const auto found = ua_exact_.find(ua);
  if (found != ua_exact_.end()) return found->second;
  return wlm::classify::os_from_user_agent(ua);
}

std::optional<OsType> RuleIndex::os_from_dhcp(std::span<const std::uint8_t> params) const {
  const std::string_view key(reinterpret_cast<const char*>(params.data()), params.size());
  const auto found = dhcp_exact_.find(key);
  if (found != dhcp_exact_.end()) return found->second;
  return wlm::classify::os_from_dhcp(params);
}

}  // namespace wlm::classify
