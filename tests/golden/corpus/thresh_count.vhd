-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'thresh_count'
-- data path: 5 nodes (3 soft, 2 hard), 1 pipeline stages
-- netlist: 8 cells, 8 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_node1 is
  port (
    v0_A0 : in signed(11 downto 0);
    v1_t : in signed(11 downto 0);
    v2_cnt_prev_out : out unsigned(7 downto 0);
    v3_t_out : out unsigned(0 downto 0)
  );
end entity thresh_count_dp_node1;

architecture rtl of thresh_count_dp_node1 is
  signal v2_cnt_prev : unsigned(7 downto 0);
  signal v3_t : unsigned(0 downto 0);
begin
  v3_t <= "1" when resize(v0_A0, 13) > resize(v1_t, 13) else "0";
  v2_cnt_prev_out <= v2_cnt_prev;
  v3_t_out <= v3_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_node2 is
  port (
    v2_cnt_prev : in unsigned(7 downto 0);
    v6_t_out : out unsigned(7 downto 0)
  );
end entity thresh_count_dp_node2;

architecture rtl of thresh_count_dp_node2 is
  signal v5_t : unsigned(8 downto 0);
  signal v6_t : unsigned(7 downto 0);
begin
  v5_t <= resize(v2_cnt_prev, 9) + to_unsigned(1, 9);
  v6_t <= resize(v5_t, 8);
  v6_t_out <= v6_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_mux_bb3 is
  port (
    v6_t : in unsigned(7 downto 0);
    v8_cnt_prev_pipe : in unsigned(7 downto 0);
    v9_pipe : in unsigned(0 downto 0);
    v7_cnt_fb_2_out : out unsigned(7 downto 0)
  );
end entity thresh_count_dp_mux_bb3;

architecture rtl of thresh_count_dp_mux_bb3 is
  signal v7_cnt_fb_2 : unsigned(7 downto 0);
begin
  v7_cnt_fb_2 <= v6_t when v9_pipe = 1 else v8_cnt_prev_pipe;
  v7_cnt_fb_2_out <= v7_cnt_fb_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_node4 is
  port (
  );
end entity thresh_count_dp_node4;

architecture rtl of thresh_count_dp_node4 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_pipe_bb3 is
  port (
    v2_cnt_prev : in unsigned(7 downto 0);
    v3_t : in unsigned(0 downto 0);
    v8_cnt_prev_pipe_out : out unsigned(7 downto 0);
    v9_pipe_out : out unsigned(0 downto 0)
  );
end entity thresh_count_dp_pipe_bb3;

architecture rtl of thresh_count_dp_pipe_bb3 is
  signal v8_cnt_prev_pipe : unsigned(7 downto 0);
  signal v9_pipe : unsigned(0 downto 0);
begin
  v8_cnt_prev_pipe <= v2_cnt_prev;
  v9_pipe <= v3_t;
  v8_cnt_prev_pipe_out <= v8_cnt_prev_pipe;
  v9_pipe_out <= v9_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    A0 : in signed(11 downto 0);
    t : in signed(11 downto 0);
    n : out unsigned(7 downto 0)
  );
end entity thresh_count_dp;

architecture rtl of thresh_count_dp is
  signal v2_cnt_prev : unsigned(7 downto 0);
  signal v3_t : unsigned(0 downto 0);
  signal v6_t : unsigned(7 downto 0);
  signal v7_cnt_fb_2 : unsigned(7 downto 0);
  signal v8_cnt_prev_pipe : unsigned(7 downto 0);
  signal v9_pipe : unsigned(0 downto 0);
  signal cnt_reg : unsigned(7 downto 0) := to_unsigned(0, 7 + 1);
begin
  u_node1 : entity work.thresh_count_dp_node1
    port map (v0_A0 => A0, v1_t => t, v2_cnt_prev_out => v2_cnt_prev, v3_t_out => v3_t);
  u_node2 : entity work.thresh_count_dp_node2
    port map (v2_cnt_prev => v2_cnt_prev, v6_t_out => v6_t);
  u_mux_bb3 : entity work.thresh_count_dp_mux_bb3
    port map (v6_t => v6_t, v8_cnt_prev_pipe => v8_cnt_prev_pipe, v9_pipe => v9_pipe, v7_cnt_fb_2_out => v7_cnt_fb_2);
  u_node4 : entity work.thresh_count_dp_node4
    port map ();
  u_pipe_bb3 : entity work.thresh_count_dp_pipe_bb3
    port map (v2_cnt_prev => v2_cnt_prev, v3_t => v3_t, v8_cnt_prev_pipe_out => v8_cnt_prev_pipe, v9_pipe_out => v9_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        if valid = '1' then
          cnt_reg <= v7_cnt_fb_2;
        end if;
      end if;
    end if;
  end process;
  v2_cnt_prev <= cnt_reg;
  n <= resize(v7_cnt_fb_2, 8);
end architecture rtl;
