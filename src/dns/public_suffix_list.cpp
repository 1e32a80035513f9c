#include "dns/public_suffix_list.h"

#include "util/require.h"
#include "util/strings.h"

namespace seg::dns {

namespace {

// Where the label after the one at `start` starts; npos when that label
// is the last.
std::size_t next_label(std::string_view domain, std::size_t start) {
  const auto dot = domain.find('.', start);
  return dot == std::string_view::npos ? dot : dot + 1;
}

}  // namespace

PublicSuffixList PublicSuffixList::with_default_rules() {
  PublicSuffixList psl;
  psl.add_rules_from_text(default_public_suffix_rules());
  return psl;
}

void PublicSuffixList::add_rule(std::string_view rule) {
  rule = util::trim(rule);
  util::require_data(!rule.empty(), "PublicSuffixList::add_rule: empty rule");
  const std::string lower = util::to_lower(rule);
  std::string_view body = lower;
  RuleKind kind = RuleKind::kNormal;
  if (body.front() == '!') {
    kind = RuleKind::kException;
    body.remove_prefix(1);
  } else if (util::starts_with(body, "*.")) {
    kind = RuleKind::kWildcard;
    body.remove_prefix(2);
  }
  util::require_data(!body.empty() && body.front() != '.' && body.back() != '.' &&
                         body.find("*") == std::string_view::npos,
                     "PublicSuffixList::add_rule: malformed rule: '" + std::string(rule) + "'");
  switch (kind) {
    case RuleKind::kNormal:
      normal_.emplace(body);
      break;
    case RuleKind::kWildcard:
      wildcard_.emplace(body);
      break;
    case RuleKind::kException:
      exception_.emplace(body);
      break;
  }
}

void PublicSuffixList::add_rules_from_text(std::string_view text) {
  for (const auto line : util::split(text, '\n')) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || util::starts_with(trimmed, "//")) {
      continue;
    }
    add_rule(trimmed);
  }
}

std::size_t PublicSuffixList::rule_count() const {
  return normal_.size() + wildcard_.size() + exception_.size();
}

std::string_view PublicSuffixList::public_suffix(std::string_view domain) const {
  // Both walks visit the suffixes that start at a label, longest first, by
  // their start offsets alone: the preparation engine calls this on its
  // pool threads, which take nothing from malloc.
  constexpr auto kNone = std::string_view::npos;

  // Exception rules win outright: the public suffix is the exception's
  // parent (one label shorter than the matched rule).
  for (std::size_t start = 0; start != kNone; start = next_label(domain, start)) {
    if (exception_.contains(domain.substr(start))) {
      const std::size_t parent = next_label(domain, start);
      return parent == kNone ? std::string_view() : domain.substr(parent);
    }
  }

  // Otherwise the longest matching rule wins. A wildcard rule "*.ck"
  // (stored as "ck") matches any suffix with exactly one label before "ck".
  // With no match, the prevailing "*" rule makes the bare TLD the public
  // suffix.
  std::size_t start = 0;
  while (true) {
    const std::size_t parent = next_label(domain, start);
    if (normal_.contains(domain.substr(start)) || parent == kNone ||
        wildcard_.contains(domain.substr(parent))) {
      return domain.substr(start);
    }
    start = parent;
  }
}

std::optional<std::string_view> PublicSuffixList::registrable_domain(
    std::string_view domain) const {
  const std::string_view suffix = public_suffix(domain);
  if (suffix.size() >= domain.size()) {
    return std::nullopt;  // domain is itself a public suffix
  }
  // One more label to the left of the suffix.
  const std::string_view head = domain.substr(0, domain.size() - suffix.size() - 1);
  const auto last_dot = head.rfind('.');
  const std::size_t start = last_dot == std::string_view::npos ? 0 : last_dot + 1;
  return domain.substr(start);
}

std::string_view PublicSuffixList::e2ld_or_self(std::string_view domain) const {
  const auto reg = registrable_domain(domain);
  return reg.has_value() ? *reg : domain;
}

std::string_view default_public_suffix_rules() {
  // Snapshot of commonly seen ICANN public suffixes, plus the paper's custom
  // augmentation: zones owned by dynamic-DNS / free-hosting providers whose
  // subdomains are freely registrable and therefore must be treated as
  // separate registrable domains (Section II-A, footnote 2).
  return R"psl(
// --- generic TLDs ---
com
net
org
info
biz
name
pro
mobi
asia
tel
xxx
edu
gov
mil
int
aero
coop
museum
jobs
travel
cat
// --- common ccTLDs with second-level registration ---
co.uk
org.uk
me.uk
ltd.uk
plc.uk
net.uk
sch.uk
ac.uk
gov.uk
nhs.uk
police.uk
uk
com.br
net.br
org.br
gov.br
edu.br
blog.br
eco.br
br
com.cn
net.cn
org.cn
gov.cn
edu.cn
ac.cn
cn
co.jp
ne.jp
or.jp
go.jp
ac.jp
ad.jp
ed.jp
gr.jp
lg.jp
jp
co.kr
ne.kr
or.kr
re.kr
go.kr
ac.kr
kr
com.au
net.au
org.au
edu.au
gov.au
id.au
asn.au
au
co.nz
net.nz
org.nz
govt.nz
ac.nz
geek.nz
nz
co.in
net.in
org.in
firm.in
gen.in
ind.in
ac.in
edu.in
gov.in
in
com.mx
net.mx
org.mx
edu.mx
gob.mx
mx
com.ar
net.ar
org.ar
edu.ar
gob.ar
ar
com.tr
net.tr
org.tr
edu.tr
gov.tr
tr
com.tw
net.tw
org.tw
edu.tw
gov.tw
tw
com.hk
net.hk
org.hk
edu.hk
gov.hk
hk
com.sg
net.sg
org.sg
edu.sg
gov.sg
sg
co.za
net.za
org.za
ac.za
gov.za
za
com.ua
net.ua
org.ua
edu.ua
gov.ua
in.ua
ua
com.ru
net.ru
org.ru
pp.ru
msk.ru
spb.ru
ru
su
de
fr
it
es
nl
be
ch
at
se
no
dk
fi
pl
cz
sk
hu
ro
bg
gr
pt
ie
lu
li
is
ee
lv
lt
ca
us
eu
me
tv
cc
ws
la
io
co
ai
sh
ac
gg
je
im
// --- wildcard suffix examples (PSL semantics exercised) ---
*.ck
!www.ck
*.bd
*.kw
// --- paper's custom augmentation: dynamic DNS & free hosting zones ---
dyndns.org
dyndns.com
dyndns.biz
dyndns.info
dyndns-home.com
dyndns-ip.com
no-ip.org
no-ip.com
no-ip.biz
no-ip.info
hopto.org
zapto.org
sytes.net
servebeer.com
servegame.com
duckdns.org
dynu.net
afraid.org
mooo.com
chickenkiller.com
us.to
freedns.afraid.org
dnsdynamic.org
dynds.org
// free hosting / blog zones (easily abused; FP analysis Section IV-D)
wordpress.com
blogspot.com
tumblr.com
weebly.com
tripod.com
angelfire.com
geocities.com
webs.com
yolasite.com
egloos.com
freehostia.com
sites.uol.com.br
interfree.it
xtgem.com
narod.ru
luxup.ru
ucoz.ru
altervista.org
site11.com
site40.net
site88.net
site90.net
host22.com
freeiz.com
comli.com
honor.es
hol.es
esy.es
vv.si
2kool4u.net
9k.com
000webhostapp.com
github.io
gitlab.io
netlify.app
herokuapp.com
appspot.com
cloudfront.net
s3.amazonaws.com
azurewebsites.net
firebaseapp.com
web.app
pages.dev
workers.dev
repl.co
glitch.me
surge.sh
neocities.org
)psl";
}

}  // namespace seg::dns
