package sweepd

import (
	"encoding/json"
	"net/http"
)

// handleDashboard serves the live dashboard: a single static page that
// polls /v1/stats, /v1/sweeps and /dashboard/events. No assets, no
// external scripts — it must work from the binary alone.
func (s *Service) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML))
}

// handleEvents serves the recent scheduler events, newest first.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Events []string `json:"events"`
	}{Events: s.events.Recent()})
}

const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>sweepd</title>
<style>
  body { font: 14px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 2rem; background: #101418; color: #d6dde4; }
  h1 { font-size: 18px; } h2 { font-size: 15px; margin-top: 1.5rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 2px 12px 2px 0; white-space: nowrap; }
  th { color: #8b98a5; font-weight: normal; border-bottom: 1px solid #2a333c; }
  .grid { display: flex; gap: 2.5rem; flex-wrap: wrap; }
  .stat b { display: block; font-size: 20px; }
  .state-done { color: #7ee787; } .state-failed, .state-canceled { color: #ff7b72; }
  .state-running { color: #79c0ff; }
  .bar { background: #2a333c; height: 6px; width: 160px; border-radius: 3px; }
  .bar i { display: block; background: #79c0ff; height: 6px; border-radius: 3px; }
  pre { color: #8b98a5; max-height: 16rem; overflow-y: auto; }
  select { font: inherit; background: #1a212a; color: #d6dde4;
           border: 1px solid #2a333c; border-radius: 3px; padding: 1px 4px; }
  .wf { margin: 2px 0; }
  .wf .lbl { display: inline-block; width: 9rem; }
  .wf .cyc { display: inline-block; width: 8rem; text-align: right; padding-right: 1rem; }
  .wfbar { display: inline-block; vertical-align: middle; width: 320px; height: 10px;
           background: #2a333c; border-radius: 2px; overflow: hidden; white-space: nowrap; }
  .wfbar i { display: inline-block; height: 10px; }
  .seg0 { background: #79c0ff; } .seg1 { background: #d2a8ff; }
  .seg2 { background: #7ee787; } .seg3 { background: #ffb86b; }
  .seg4 { background: #ff7b72; } .seg5 { background: #8b98a5; }
  .v-identical { color: #8b98a5; } .v-within-tolerance { color: #d6dde4; }
  .v-improved { color: #7ee787; } .v-regressed { color: #ff7b72; }
</style>
</head>
<body>
<h1>sweepd</h1>
<div class="grid" id="stats"></div>
<h2>sweeps</h2>
<table><thead><tr>
  <th>id</th><th>name</th><th>experiment</th><th>state</th>
  <th>progress</th><th>created</th>
</tr></thead><tbody id="sweeps"></tbody></table>
<h2>observability
  <select id="obs-sweep"><option value="">(pick an obs sweep)</option></select>
  vs <select id="obs-base"><option value="">(none)</option></select>
</h2>
<div id="obs-pane"></div>
<h2>recent activity</h2>
<pre id="events"></pre>
<script>
const esc = s => String(s ?? "").replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
async function tick() {
  try {
    const [stats, sweeps, events] = await Promise.all([
      fetch("/v1/stats").then(r => r.json()),
      fetch("/v1/sweeps").then(r => r.json()),
      fetch("/dashboard/events").then(r => r.json()),
    ]);
    const cells = [
      ["executed", stats.executed], ["cache hits", stats.cache_hits],
      ["deduped", stats.deduped], ["failed", stats.failed],
      ["queued", stats.queued_jobs],
      ["in flight", stats.inflight_jobs],
      ["cache", stats.cache_entries + " / " + stats.cache_bytes + " B"],
    ];
    document.getElementById("stats").innerHTML = cells.map(
      ([k, v]) => '<div class="stat"><b>' + esc(v) + "</b>" + esc(k) + "</div>").join("");
    document.getElementById("sweeps").innerHTML = (sweeps.sweeps || []).slice().reverse().map(s => {
      const pct = s.total ? Math.round(100 * s.done / s.total) : (s.state === "done" ? 100 : 0);
      return "<tr><td>" + esc(s.id) + "</td><td>" + esc(s.name) + "</td><td>" +
        esc(s.experiment || "jobs") + '</td><td class="state-' + esc(s.state) + '">' +
        esc(s.state) + '</td><td><div class="bar"><i style="width:' + pct +
        '%"></i></div> ' + s.done + "/" + s.total + "</td><td>" +
        esc(s.created) + "</td></tr>";
    }).join("");
    document.getElementById("events").textContent = (events.events || []).join("\n");
    syncObsOptions(sweeps.sweeps || []);
  } catch (e) { /* server restarting; keep polling */ }
}

// --- observability pane ---------------------------------------------
// The selects list finished sweeps; picking one renders its merged
// waterfall from /v1/sweeps/{id}/obs, picking a base adds the verdict
// from /v1/sweeps/{id}/diff?base=.
function syncObsOptions(sweeps) {
  const done = sweeps.filter(s => s.state === "done").map(s => s.id);
  for (const sel of [document.getElementById("obs-sweep"), document.getElementById("obs-base")]) {
    const have = new Set([...sel.options].map(o => o.value));
    for (const id of done) {
      if (!have.has(id)) {
        const o = document.createElement("option");
        o.value = o.textContent = id;
        sel.appendChild(o);
      }
    }
  }
}
function bar(parts, total) {
  if (!total) return '<span class="wfbar"></span>';
  let html = '<span class="wfbar">', i = 0;
  for (const [, v] of parts) {
    const w = Math.round(1000 * v / total) / 10;
    html += '<i class="seg' + (i++ % 6) + '" style="width:' + w + '%" title="' + esc(v) + '"></i>';
  }
  return html + "</span>";
}
async function renderObs() {
  const id = document.getElementById("obs-sweep").value;
  const base = document.getElementById("obs-base").value;
  const pane = document.getElementById("obs-pane");
  if (!id) { pane.innerHTML = ""; return; }
  try {
    const r = await fetch("/v1/sweeps/" + encodeURIComponent(id) + "/obs");
    const doc = await r.json();
    if (!r.ok) { pane.innerHTML = "<p>" + esc(doc.error || r.status) + "</p>"; return; }
    if (!doc.runs) { pane.innerHTML = "<p>sweep " + esc(id) + " carries no obs reports (submit with \"obs\": true)</p>"; return; }
    let html = "<p>" + esc(id) + ": " + esc(doc.runs) + " run(s), " + esc(doc.elapsed) + " cycles</p>";
    const bmax = Math.max(1, ...(doc.buckets || []).map(b => b.cycles));
    html += (doc.buckets || []).map(b =>
      '<div class="wf"><span class="lbl">' + esc(b.name) + '</span><span class="cyc">' +
      esc(b.cycles) + "</span>" + bar([[b.name, b.cycles]], bmax) +
      " " + (Math.round(10 * b.points) / 10) + " pts</div>").join("");
    if ((doc.stalls || []).length) {
      html += "<p>critical-path waterfall (stall cycles by latency source):</p>";
      const smax = Math.max(1, ...doc.stalls.map(s => s.stall_cycles));
      html += doc.stalls.map(s => {
        const segs = (s.segments || []).map(g => [g.kind, g.attributed]);
        return '<div class="wf"><span class="lbl">' + esc(s.bucket) + '</span><span class="cyc">' +
          esc(s.stall_cycles) + "</span>" + bar(segs.length ? segs : [["", s.stall_cycles]], smax) +
          (s.dominant ? " dominant: " + esc(s.dominant) : "") + "</div>";
      }).join("");
    }
    if ((doc.hists || []).length) {
      html += "<table><thead><tr><th>operation</th><th>count</th><th>mean</th><th>p50</th><th>p90</th><th>p99</th></tr></thead><tbody>" +
        doc.hists.map(h => "<tr><td>" + esc(h.name) + "</td><td>" + esc(h.count) + "</td><td>" +
          (Math.round(10 * h.mean) / 10) + "</td><td>" + Math.round(h.p50) + "</td><td>" +
          Math.round(h.p90) + "</td><td>" + Math.round(h.p99) + "</td></tr>").join("") +
        "</tbody></table>";
    }
    if (base && base !== id) {
      const dr = await fetch("/v1/sweeps/" + encodeURIComponent(id) + "/diff?base=" + encodeURIComponent(base));
      const d = await dr.json();
      if (!dr.ok) {
        html += "<p>diff: " + esc(d.error || dr.status) + "</p>";
      } else {
        html += '<p>vs ' + esc(base) + ': <b class="v-' + esc(d.verdict) + '">' + esc(d.verdict) + "</b>" +
          (d.regressions ? " — regressed: " + esc(d.regressions.join(", ")) : "") + "</p>" +
          (d.buckets || []).map(b =>
            '<div class="wf"><span class="lbl">' + esc(b.bucket) + '</span><span class="cyc">' +
            esc(b.base) + " &rarr; " + esc(b.new) + '</span><span class="v-' + esc(b.verdict) + '">' +
            esc(b.verdict) + " (" + (Math.round(100 * b.pct) / 100) + "%)</span></div>").join("");
      }
    }
    pane.innerHTML = html;
  } catch (e) { /* keep the last pane on transient errors */ }
}
document.getElementById("obs-sweep").addEventListener("change", renderObs);
document.getElementById("obs-base").addEventListener("change", renderObs);
setInterval(renderObs, 5000);
tick();
setInterval(tick, 1000);
</script>
</body>
</html>
`
